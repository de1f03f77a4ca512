package results

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/maps-sim/mapsim/internal/cache/policy"
	"github.com/maps-sim/mapsim/internal/metacache"
	"github.com/maps-sim/mapsim/internal/obs"
	"github.com/maps-sim/mapsim/internal/partition"
	"github.com/maps-sim/mapsim/internal/sim"
	"github.com/maps-sim/mapsim/internal/workload"
)

// Every leaf field of sim.Config (dotted paths, recursing into
// Hierarchy, Meta, and DRAM) is classified exactly once below.
// Front-end fields reach both KeyFor and FrontKeyFor; back-end fields
// reach KeyFor only; erased fields never reach a key — they are
// execution knobs Canonical erases or caller state it rejects.
var (
	frontFields = []string{
		"Benchmark", "WorkloadSpec", "Instructions", "Warmup", "Seed",
		"Hierarchy.L1Size", "Hierarchy.L1Ways", "Hierarchy.L2Size",
		"Hierarchy.L2Ways", "Hierarchy.L3Size", "Hierarchy.L3Ways",
		"BaseCPI", "L2HitLatency", "L3HitLatency",
	}
	backFields = []string{
		"Secure", "Org",
		"Meta.Size", "Meta.Ways", "Meta.Content", "Meta.PartialWrites",
		"Speculation", "SpeculationWindow",
		"DRAM.Banks", "DRAM.RowBytes", "DRAM.TRCD", "DRAM.TCAS", "DRAM.TRP",
		"DRAM.TBurst", "DRAM.EnergyPJPerBit", "DRAM.RowActivatePJ",
	}
	erasedFields = []string{
		"Workload", "Tap", "Progress", "TracePath", "DisableFastPath",
		"Hierarchy.DisableFastPath",
		"Meta.Policy", "Meta.Partition", "Meta.DisableFastPath",
	}
)

// configLeaves lists the dotted paths of every leaf field of t,
// recursing into the nested configuration structs.
func configLeaves(t reflect.Type, prefix string) []string {
	var out []string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		path := prefix + f.Name
		ft := f.Type
		if ft.Kind() == reflect.Pointer && ft.Elem().Kind() == reflect.Struct && f.Name == "Meta" {
			ft = ft.Elem()
		}
		if ft.Kind() == reflect.Struct && (f.Name == "Hierarchy" || f.Name == "Meta" || f.Name == "DRAM") {
			out = append(out, configLeaves(ft, path+".")...)
			continue
		}
		out = append(out, path)
	}
	return out
}

// perturb returns a copy of base (with a private Meta) whose field at
// path holds a different value.
func perturb(t *testing.T, base sim.Config, path string) sim.Config {
	t.Helper()
	c := base
	meta := *base.Meta
	c.Meta = &meta
	v := reflect.ValueOf(&c).Elem()
	var f reflect.Value
	for _, name := range strings.Split(path, ".") {
		if v.Kind() == reflect.Pointer {
			v = v.Elem()
		}
		f = v.FieldByName(name)
		v = f
	}
	switch path {
	case "WorkloadSpec":
		f.Set(reflect.ValueOf(mustParse(t, specKeyYAML)))
		return c
	case "Workload":
		g, err := workload.New("fft")
		if err != nil {
			t.Fatal(err)
		}
		f.Set(reflect.ValueOf(g))
		return c
	case "Progress":
		f.Set(reflect.ValueOf(&obs.Progress{}))
		return c
	case "Meta.Policy":
		f.Set(reflect.ValueOf(policy.NewLRU()))
		return c
	case "Meta.Partition":
		f.Set(reflect.ValueOf(partition.NewNone()))
		return c
	}
	switch f.Kind() {
	case reflect.Bool:
		f.SetBool(!f.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		f.SetInt(f.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		f.SetUint(f.Uint() + 1)
	case reflect.Float64:
		f.SetFloat(f.Float() + 0.5)
	case reflect.String:
		f.SetString(f.String() + "x")
	case reflect.Func:
		f.Set(reflect.MakeFunc(f.Type(), func([]reflect.Value) []reflect.Value { return nil }))
	default:
		t.Fatalf("%s: no perturbation for kind %s; teach perturb this field", path, f.Kind())
	}
	return c
}

// TestKeyCoversEveryConfigField walks sim.Config by reflection and
// fails when a field does not reach the key it should: KeyFor must
// change with every front- and back-end field, FrontKeyFor with
// exactly the front-end ones, and erased fields must either leave the
// key alone or make the config uncanonicalizable. A new Config field
// fails the test until it is classified — and hashed.
func TestKeyCoversEveryConfigField(t *testing.T) {
	class := make(map[string]string)
	for name, list := range map[string][]string{"front": frontFields, "back": backFields, "erased": erasedFields} {
		for _, f := range list {
			if prev, dup := class[f]; dup {
				t.Fatalf("%s classified as both %s and %s", f, prev, name)
			}
			class[f] = name
		}
	}
	leaves := configLeaves(reflect.TypeOf(sim.Config{}), "")
	seen := make(map[string]bool)
	for _, f := range leaves {
		seen[f] = true
		if class[f] == "" {
			t.Errorf("sim.Config field %s is not classified as front, back, or erased", f)
		}
	}
	var stale []string
	for f := range class {
		if !seen[f] {
			stale = append(stale, f)
		}
	}
	sort.Strings(stale)
	if len(stale) > 0 {
		t.Errorf("classified fields missing from sim.Config: %v", stale)
	}

	base, err := sim.Config{
		Benchmark: "key-mix", Secure: true,
		Meta: &metacache.Config{Size: 64 << 10, Ways: 8},
	}.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	k0, err := KeyFor(base)
	if err != nil {
		t.Fatal(err)
	}
	f0, err := FrontKeyFor(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range leaves {
		c := perturb(t, base, path)
		k, kerr := KeyFor(c)
		fk, ferr := FrontKeyFor(c)
		switch class[path] {
		case "erased":
			if kerr == nil && k != k0 {
				t.Errorf("erased field %s changed the key", path)
			}
			if ferr == nil && fk != f0 {
				t.Errorf("erased field %s changed the front key", path)
			}
		case "front", "back":
			if kerr != nil || ferr != nil {
				t.Errorf("%s: perturbed config rejected: %v / %v", path, kerr, ferr)
				continue
			}
			if k == k0 {
				t.Errorf("field %s does not reach KeyFor", path)
			}
			if front := class[path] == "front"; (fk != f0) != front {
				t.Errorf("field %s (%s): front key changed = %v", path, class[path], fk != f0)
			}
		}
	}
}
