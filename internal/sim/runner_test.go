package sim

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"cryowire/internal/fault"
	"cryowire/internal/workload"
)

// runnerTestCfg keeps the runner tests fast: results only need to be
// compared, not statistically meaningful.
func runnerTestCfg() Config { return Config{WarmupCycles: 600, MeasureCycles: 2000, Seed: 1} }

// runnerTestSpecs returns a mixed grid of specs: different designs,
// workloads and seeds, including snooping and directory protocols.
func runnerTestSpecs(t *testing.T) []LaneSpec {
	t.Helper()
	f := NewFactory()
	designs := []Design{f.Baseline300(), f.CHPMesh(), f.CHPCryoBus()}
	var specs []LaneSpec
	for wi, wl := range []string{"ferret", "streamcluster"} {
		p, err := workload.ByName(wl)
		if err != nil {
			t.Fatal(err)
		}
		for di, d := range designs {
			cfg := runnerTestCfg()
			cfg.Seed = int64(1 + wi*len(designs) + di)
			specs = append(specs, LaneSpec{Design: d, Profile: p, Config: cfg})
		}
	}
	return specs
}

// standalone runs one spec through System.Run directly.
func standalone(t *testing.T, sp LaneSpec) Result {
	t.Helper()
	s, err := New(sp.Design, sp.Profile, sp.Config)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRunnerDedup checks that identical specs are simulated once and
// still all receive the right result, and that a ResultCache shared by
// two workers carries completions across calls. Result contains only
// comparable fields, so == is byte equality.
func TestRunnerDedup(t *testing.T) {
	specs := runnerTestSpecs(t)
	dup := append(append([]LaneSpec{}, specs...), specs[0], specs[3])
	want := make([]Result, len(specs))
	for i, sp := range specs {
		want[i] = standalone(t, sp)
	}
	cache := NewResultCache()
	r := &Runner{Workers: 2, Cache: cache}
	res, errs := r.RunCtx(context.Background(), dup)
	for k := range dup {
		if errs[k] != nil {
			t.Fatalf("spec %d: %v", k, errs[k])
		}
	}
	for i := range specs {
		if res[i] != want[i] {
			t.Errorf("spec %d diverged", i)
		}
	}
	if res[len(specs)] != want[0] || res[len(specs)+1] != want[3] {
		t.Error("in-call duplicate got wrong result")
	}
	if got := len(cache.m); got != len(specs) {
		t.Errorf("cache holds %d entries, want %d (duplicates must not re-simulate)", got, len(specs))
	}
	// Second call: everything served from the cache.
	res2, errs2 := r.RunCtx(context.Background(), specs)
	for i := range specs {
		if errs2[i] != nil {
			t.Fatalf("cached spec %d: %v", i, errs2[i])
		}
		if res2[i] != want[i] {
			t.Errorf("cached spec %d diverged", i)
		}
	}
}

// TestRunnerLaneErrorIsolation mixes a failing spec (invalid design)
// and a pre-canceled spec among healthy ones: the healthy specs must
// still match their standalone references, and the failures must be
// typed *LaneErrors that name their index and unwrap to their causes.
func TestRunnerLaneErrorIsolation(t *testing.T) {
	specs := runnerTestSpecs(t)[:3]
	want := make([]Result, len(specs))
	for i, sp := range specs {
		want[i] = standalone(t, sp)
	}
	bad := specs[0]
	bad.Design.Cores = 1 // fails Validate
	canceledCtx, cancel := context.WithCancel(context.Background())
	cancel()
	stuck := specs[1]
	stuck.Config.Seed = 999 // distinct fingerprint: must not dedup against specs[1]
	stuck.Config = stuck.Config.WithContext(canceledCtx)
	mixed := []LaneSpec{specs[0], bad, specs[1], stuck, specs[2]}

	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			r := &Runner{Workers: workers}
			res, errs := r.RunCtx(context.Background(), mixed)
			for k, i := range map[int]int{0: 0, 2: 1, 4: 2} {
				if errs[k] != nil {
					t.Fatalf("healthy spec %d: %v", k, errs[k])
				}
				if res[k] != want[i] {
					t.Errorf("healthy spec %d diverged from standalone reference", k)
				}
			}
			var le *LaneError
			if !errors.As(errs[1], &le) {
				t.Fatalf("invalid-design error %T, want *LaneError", errs[1])
			}
			if le.Lane != 1 {
				t.Errorf("LaneError.Lane = %d, want 1", le.Lane)
			}
			if !errors.As(errs[3], &le) || !errors.Is(errs[3], context.Canceled) {
				t.Errorf("canceled spec error = %v, want *LaneError wrapping context.Canceled", errs[3])
			}
			if le.Lane != 3 {
				t.Errorf("LaneError.Lane = %d, want 3", le.Lane)
			}
		})
	}
}

// TestRunnerCanceledCall: a call whose ctx is already canceled gives
// every spec — in-call duplicates included — a *LaneError stamped with
// its own index that satisfies errors.Is(err, context.Canceled).
func TestRunnerCanceledCall(t *testing.T) {
	specs := runnerTestSpecs(t)
	specs = append(specs, specs[0])
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 2} {
		_, errs := (&Runner{Workers: workers}).RunCtx(ctx, specs)
		for i, err := range errs {
			var le *LaneError
			if !errors.As(err, &le) || !errors.Is(err, context.Canceled) {
				t.Fatalf("workers=%d spec %d: error = %v, want *LaneError wrapping context.Canceled", workers, i, err)
			}
			if le.Lane != i {
				t.Errorf("workers=%d spec %d: LaneError.Lane = %d", workers, i, le.Lane)
			}
		}
	}
}

// TestFingerprintFieldsAreValues enforces the premise LaneSpec.fingerprint
// rests on: every field reachable from a spec renders by value under
// %#v. A pointer, map, interface, func or chan would print an address
// or an unordered rendering, so two equal specs could miss each other
// or two different ones could collide. Two fields fingerprint
// neutralises itself are exempt: Config.ctx (cleared) and Config.Fault
// (dereferenced; fault.Config is walked here instead). Slices fail too,
// except the core's critical-path stage list: %#v prints it element by
// element in order (a nil and an empty list differ, which can only
// cost a re-simulation), and its element type is still walked.
func TestFingerprintFieldsAreValues(t *testing.T) {
	exempt := map[string]bool{"sim.Config.ctx": true, "sim.Config.Fault": true}
	sliceOK := map[string]bool{"pipeline.Pipeline.Stages": true, "pipeline.Stage.Split": true}
	seen := map[reflect.Type]bool{}
	var walk func(path, field string, typ reflect.Type)
	walk = func(path, field string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Slice:
			if !sliceOK[field] {
				t.Errorf("%s is a slice outside the reviewed stage list", path)
				return
			}
			walk(path+"[]", field, typ.Elem())
		case reflect.Pointer, reflect.Map, reflect.Interface, reflect.Func, reflect.Chan, reflect.UnsafePointer:
			t.Errorf("%s is a %s: fingerprint would not render it by value", path, typ.Kind())
		case reflect.Array:
			walk(path+"[]", field, typ.Elem())
		case reflect.Struct:
			if seen[typ] {
				return
			}
			seen[typ] = true
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				name := typ.String() + "." + f.Name
				if !exempt[name] {
					walk(path+"."+f.Name, name, f.Type)
				}
			}
		}
	}
	for _, typ := range []reflect.Type{
		reflect.TypeOf(Design{}),
		reflect.TypeOf(workload.Profile{}),
		reflect.TypeOf(Config{}),
		reflect.TypeOf(fault.Config{}),
	} {
		walk(typ.String(), typ.String(), typ)
	}
}
