package sim

import (
	"testing"

	"github.com/maps-sim/mapsim/internal/metacache"
	"github.com/maps-sim/mapsim/internal/workload"
)

// invariantInstr is the run length of the per-benchmark invariant
// sweeps: past warmup into a measured window with writebacks and
// metadata evictions on every workload.
const invariantInstr = 200_000

// Every memory access the engine claims must correspond to a DRAM
// transaction, and vice versa: the two books are kept independently
// (engine purpose counters vs DRAM model counters) so this catches
// any path that touches one and not the other.
func TestTrafficConservation(t *testing.T) {
	type tcase struct {
		name string
		cfg  Config
	}
	cases := []tcase{
		{"no-metacache", Config{Benchmark: "fft", Instructions: 200_000, Secure: true}},
		{"with-metacache", Config{Benchmark: "fft", Instructions: 200_000, Secure: true,
			Meta: &metacache.Config{Size: 64 << 10, Ways: 8}}},
		{"partial-writes", Config{Benchmark: "lbm", Instructions: 200_000, Secure: true,
			Meta: &metacache.Config{Size: 16 << 10, Ways: 8, PartialWrites: true}}},
		{"counters-only", Config{Benchmark: "canneal", Instructions: 200_000, Secure: true,
			Meta: &metacache.Config{Size: 64 << 10, Ways: 8, Content: metacache.CountersOnly}}},
	}
	// Every workload, with speculation and a metadata cache small
	// enough to evict: each access pattern drives its own mix of
	// counter, hash and tree traffic through both books.
	for _, name := range workload.Names() {
		cases = append(cases, tcase{"all/" + name, Config{Benchmark: name, Instructions: invariantInstr,
			Secure: true, Speculation: true, Meta: &metacache.Config{Size: 32 << 10, Ways: 8}}})
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			r, err := Run(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := r.DRAM.Accesses(), r.Mem.Total(); got != want {
				t.Errorf("DRAM transactions %d != engine accounting %d", got, want)
			}
		})
	}
}

// The insecure baseline's DRAM traffic is exactly LLC misses plus
// surfaced writebacks.
func TestInsecureTrafficMatchesLLC(t *testing.T) {
	r, err := Run(Config{Benchmark: "libquantum", Instructions: 200_000})
	if err != nil {
		t.Fatal(err)
	}
	if r.DRAM.Reads != r.LLC.Misses {
		t.Errorf("DRAM reads %d != LLC misses %d", r.DRAM.Reads, r.LLC.Misses)
	}
	// Writebacks surface only from LLC dirty evictions.
	if r.DRAM.Writes > r.LLC.DirtyEvicts {
		t.Errorf("DRAM writes %d exceed LLC dirty evictions %d", r.DRAM.Writes, r.LLC.DirtyEvicts)
	}
}

// Secure-memory traffic decomposes: data reads equal LLC misses
// (every miss fetches exactly one data block, plus page
// re-encryptions).
func TestSecureDataReadsMatchLLCMisses(t *testing.T) {
	r, err := Run(Config{Benchmark: "libquantum", Instructions: 200_000, Secure: true,
		Meta: &metacache.Config{Size: 64 << 10, Ways: 8}})
	if err != nil {
		t.Fatal(err)
	}
	reencReads := r.PageReencryptions * 64
	if r.Mem.DataReads != r.LLC.Misses+reencReads {
		t.Errorf("data reads %d != LLC misses %d + re-encryption reads %d",
			r.Mem.DataReads, r.LLC.Misses, reencReads)
	}
}

// TestLLCMissesBoundMemoryReads checks on every workload, insecure
// and secure, that each demand fetch from memory is an LLC miss. The
// LLC also counts a miss when an L2 dirty victim is installed in it
// without a fetch (the hierarchy is non-inclusive), so the misses
// exceed the demand fetches by at most the L2's dirty evictions.
// The secure side excludes page re-encryption reads.
func TestLLCMissesBoundMemoryReads(t *testing.T) {
	for _, name := range workload.Names() {
		for _, secure := range []bool{false, true} {
			cfg := Config{Benchmark: name, Instructions: invariantInstr}
			label := name + "/insecure"
			if secure {
				cfg.Secure = true
				cfg.Meta = &metacache.Config{Size: 64 << 10, Ways: 8}
				label = name + "/secure"
			}
			t.Run(label, func(t *testing.T) {
				t.Parallel()
				r, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				fetches := r.DRAM.Reads
				if secure {
					fetches = r.Mem.DataReads - r.PageReencryptions*64
				}
				misses, l2Dirty := r.LLC.Misses, r.Hier[1].DirtyEvicts
				if fetches > misses || misses-fetches > l2Dirty {
					t.Errorf("demand fetches %d, LLC misses %d, L2 dirty evictions %d: want misses-dirty <= fetches <= misses",
						fetches, misses, l2Dirty)
				}
				if !secure && r.DRAM.Writes > r.LLC.DirtyEvicts {
					t.Errorf("DRAM writes %d exceed LLC dirty evictions %d", r.DRAM.Writes, r.LLC.DirtyEvicts)
				}
			})
		}
	}
}
