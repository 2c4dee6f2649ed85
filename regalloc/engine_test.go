package regalloc_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/irgen"
	"repro/internal/pipeline"
	"repro/regalloc"
	"repro/regalloc/irx"
)

const ssaSrc = `
func f ssa {
b0:
  a = param 0
  b = param 1
  c = arith a, b
  d = arith c, a
  ret d
}`

const nonSSASrc = `
func g {
b0:
  x = param 0
  x = arith x, x
  ret x
}`

func TestNewValidatesOptions(t *testing.T) {
	if _, err := regalloc.New(); !errors.Is(err, regalloc.ErrInvalidConfig) {
		t.Errorf("New() without WithRegisters: err = %v, want ErrInvalidConfig", err)
	}
	if _, err := regalloc.New(regalloc.WithRegisters(0)); !errors.Is(err, regalloc.ErrInvalidConfig) {
		t.Errorf("WithRegisters(0): err = %v, want ErrInvalidConfig", err)
	}
	if _, err := regalloc.New(regalloc.WithRegisters(4), regalloc.WithJobs(-1)); !errors.Is(err, regalloc.ErrInvalidConfig) {
		t.Errorf("WithJobs(-1): err = %v, want ErrInvalidConfig", err)
	}
	if _, err := regalloc.New(regalloc.WithRegisters(4), regalloc.WithAllocator("nope")); !errors.Is(err, regalloc.ErrUnknownAllocator) {
		t.Errorf("WithAllocator(nope): err = %v, want ErrUnknownAllocator", err)
	}
	bad := regalloc.NewCostModel(-1, 1)
	if _, err := regalloc.New(regalloc.WithRegisters(4), regalloc.WithCostModel(bad)); !errors.Is(err, regalloc.ErrInvalidConfig) {
		t.Errorf("invalid cost model: err = %v, want ErrInvalidConfig", err)
	}
}

func TestAllocatorNameCaseInsensitive(t *testing.T) {
	eng, err := regalloc.New(regalloc.WithRegisters(4), regalloc.WithAllocator("bfpl"))
	if err != nil {
		t.Fatalf("lower-case allocator name rejected: %v", err)
	}
	out, err := eng.AllocateFunc(context.Background(), irx.MustParse(ssaSrc))
	if err != nil {
		t.Fatal(err)
	}
	if out.Result.Allocator != "BFPL" {
		t.Errorf("allocator = %s, want BFPL", out.Result.Allocator)
	}
}

func TestAllocateFuncTypedErrors(t *testing.T) {
	eng, err := regalloc.New(regalloc.WithRegisters(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// A function declared ssa that violates single definition: ErrNotSSA
	// through a *FuncError naming the validate stage.
	broken := irx.MustParse(nonSSASrc)
	broken.SSA = true
	_, err = eng.AllocateFunc(ctx, broken)
	if !errors.Is(err, regalloc.ErrNotSSA) {
		t.Errorf("multi-def ssa function: err = %v, want ErrNotSSA", err)
	}
	var fe *regalloc.FuncError
	if !errors.As(err, &fe) {
		t.Fatalf("err %v is not a *FuncError", err)
	}
	if fe.Func != "g" || fe.Stage != "validate" {
		t.Errorf("FuncError = {Func: %q, Stage: %q}, want {g, validate}", fe.Func, fe.Stage)
	}

	// A chordal-only allocator on a non-SSA function: ErrNotSSA at the
	// allocate stage.
	chordalEng, err := regalloc.New(regalloc.WithRegisters(2), regalloc.WithAllocator("NL"))
	if err != nil {
		t.Fatal(err)
	}
	_, err = chordalEng.AllocateFunc(ctx, irx.MustParse(nonSSASrc))
	if !errors.Is(err, regalloc.ErrNotSSA) {
		t.Errorf("NL on non-SSA: err = %v, want ErrNotSSA", err)
	}
	if !errors.As(err, &fe) || fe.Stage != "allocate" {
		t.Errorf("NL on non-SSA: err %v should be a *FuncError at the allocate stage", err)
	}

	// Canceled context before the call.
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	_, err = eng.AllocateFunc(canceled, irx.MustParse(ssaSrc))
	if !errors.Is(err, regalloc.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Errorf("pre-canceled ctx: err = %v, want ErrCanceled wrapping context.Canceled", err)
	}

	if _, err := eng.AllocateFunc(ctx, nil); !errors.Is(err, regalloc.ErrInvalidConfig) {
		t.Errorf("nil function: err = %v, want ErrInvalidConfig", err)
	}
}

// overAllocator keeps everything in registers regardless of pressure — an
// intentionally broken custom allocator to pin the engine-side result
// verification and its typed error.
type overAllocator struct{}

func (overAllocator) Name() string { return "test-overalloc" }
func (overAllocator) Allocate(p *regalloc.Problem) *regalloc.Result {
	res := &regalloc.Result{Allocated: make([]bool, p.N()), Allocator: "test-overalloc"}
	for i := range res.Allocated {
		res.Allocated[i] = true
	}
	return res
}

func TestCustomAllocatorPressureUnsatisfiable(t *testing.T) {
	if err := regalloc.Register("test-overalloc", func() regalloc.Allocator { return overAllocator{} }); err != nil {
		t.Fatal(err)
	}
	eng, err := regalloc.New(regalloc.WithRegisters(2), regalloc.WithAllocator("test-overalloc"))
	if err != nil {
		t.Fatal(err)
	}
	// MaxLive 3 > R=2, so keeping everything violates pressure.
	f := irx.MustParse(`
func hot ssa {
b0:
  a = param 0
  b = param 1
  c = param 2
  d = arith a, b
  e = arith d, c
  g = arith e, a
  ret g
}`)
	_, err = eng.AllocateFunc(context.Background(), f)
	if !errors.Is(err, regalloc.ErrPressureUnsatisfiable) {
		t.Errorf("over-allocating custom allocator: err = %v, want ErrPressureUnsatisfiable", err)
	}
	var fe *regalloc.FuncError
	if !errors.As(err, &fe) || fe.Stage != "allocate" {
		t.Errorf("err %v should be a *FuncError at the allocate stage", err)
	}
}

// truncAllocator returns a wrong-length result — a contract violation that
// must NOT be tagged ErrPressureUnsatisfiable (that sentinel means "kept
// more than R live values", which a retry with more registers could fix;
// this can't be).
type truncAllocator struct{}

func (truncAllocator) Name() string { return "test-trunc" }
func (truncAllocator) Allocate(p *regalloc.Problem) *regalloc.Result {
	return &regalloc.Result{Allocated: make([]bool, 1), Allocator: "test-trunc"}
}

func TestCustomAllocatorMalformedResult(t *testing.T) {
	if err := regalloc.Register("test-trunc", func() regalloc.Allocator { return truncAllocator{} }); err != nil {
		t.Fatal(err)
	}
	eng, err := regalloc.New(regalloc.WithRegisters(2), regalloc.WithAllocator("test-trunc"))
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.AllocateFunc(context.Background(), irx.MustParse(ssaSrc))
	if err == nil {
		t.Fatal("malformed result accepted")
	}
	if errors.Is(err, regalloc.ErrPressureUnsatisfiable) {
		t.Errorf("malformed result mis-tagged as pressure failure: %v", err)
	}
	var fe *regalloc.FuncError
	if !errors.As(err, &fe) || fe.Stage != "allocate" {
		t.Errorf("err %v should be a *FuncError at the allocate stage", err)
	}
}

// intervalAllocator records, per call, how many linear-scan intervals it
// was handed against the vertex count, and spills everything.
type intervalAllocator struct{}

var intervalCalls struct {
	sync.Mutex
	seen [][2]int // {len(p.Intervals), p.N()}, -1 for nil intervals
}

func (intervalAllocator) Name() string { return "test-intervals" }
func (intervalAllocator) Allocate(p *regalloc.Problem) *regalloc.Result {
	got := len(p.Intervals)
	if p.Intervals == nil {
		got = -1
	}
	intervalCalls.Lock()
	intervalCalls.seen = append(intervalCalls.seen, [2]int{got, p.N()})
	intervalCalls.Unlock()
	return &regalloc.Result{Allocated: make([]bool, p.N()), Allocator: "test-intervals"}
}

// TestCustomAllocatorSeesIntervals: the pipeline builds linear-scan intervals
// only for allocators that may read them, and a registered allocator is
// one: on the clique path, the explicit-graph path and a machine's
// per-class subproblems it gets one interval per vertex.
func TestCustomAllocatorSeesIntervals(t *testing.T) {
	if err := regalloc.Register("test-intervals", func() regalloc.Allocator { return intervalAllocator{} }); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		src  string
		opts []regalloc.Option
	}{
		{"ssa", ssaSrc, nil},
		{"non-ssa", nonSSASrc, nil},
		{"machine", ssaSrc, []regalloc.Option{regalloc.WithMachine("armv7")}},
	} {
		intervalCalls.Lock()
		intervalCalls.seen = nil
		intervalCalls.Unlock()
		opts := append([]regalloc.Option{regalloc.WithRegisters(4), regalloc.WithAllocator("test-intervals")}, tc.opts...)
		eng, err := regalloc.New(opts...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.AllocateFunc(context.Background(), irx.MustParse(tc.src)); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		intervalCalls.Lock()
		seen := intervalCalls.seen
		intervalCalls.Unlock()
		if len(seen) == 0 {
			t.Fatalf("%s: allocator never called", tc.name)
		}
		for _, c := range seen {
			if c[0] != c[1] || c[1] == 0 {
				t.Errorf("%s: allocator saw %d intervals for %d vertices", tc.name, c[0], c[1])
			}
		}
	}
}

// panicAllocator blows up on every input: even then, clients must get the
// documented *FuncError, never a crashed batch or an untyped error.
type panicAllocator struct{}

func (panicAllocator) Name() string { return "test-panic" }
func (panicAllocator) Allocate(p *regalloc.Problem) *regalloc.Result {
	panic("intentional test panic")
}

func TestCustomAllocatorPanicIsFuncError(t *testing.T) {
	if err := regalloc.Register("test-panic", func() regalloc.Allocator { return panicAllocator{} }); err != nil {
		t.Fatal(err)
	}
	eng, err := regalloc.New(regalloc.WithRegisters(2), regalloc.WithAllocator("test-panic"))
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.AllocateFunc(context.Background(), irx.MustParse(ssaSrc))
	var fe *regalloc.FuncError
	if !errors.As(err, &fe) || fe.Func != "f" || fe.Stage != "allocate" {
		t.Errorf("panicking allocator: err = %v, want *FuncError{f, allocate}", err)
	}
}

func TestRegistry(t *testing.T) {
	if err := regalloc.Register("test-reg-a", func() regalloc.Allocator { return overAllocator{} }); err != nil {
		t.Fatal(err)
	}
	// Double registration, exact and case-folded.
	if err := regalloc.Register("test-reg-a", func() regalloc.Allocator { return overAllocator{} }); !errors.Is(err, regalloc.ErrInvalidConfig) {
		t.Errorf("double registration: err = %v, want ErrInvalidConfig", err)
	}
	if err := regalloc.Register("TEST-REG-A", func() regalloc.Allocator { return overAllocator{} }); !errors.Is(err, regalloc.ErrInvalidConfig) {
		t.Errorf("case-folded double registration: err = %v, want ErrInvalidConfig", err)
	}
	if err := regalloc.Register("", func() regalloc.Allocator { return overAllocator{} }); !errors.Is(err, regalloc.ErrInvalidConfig) {
		t.Errorf("empty name: err = %v, want ErrInvalidConfig", err)
	}
	if err := regalloc.Register("test-reg-nilf", nil); !errors.Is(err, regalloc.ErrInvalidConfig) {
		t.Errorf("nil factory: err = %v, want ErrInvalidConfig", err)
	}
	if _, err := regalloc.NewAllocator("definitely-not-registered"); !errors.Is(err, regalloc.ErrUnknownAllocator) {
		t.Errorf("unknown name: err = %v, want ErrUnknownAllocator", err)
	}

	names := regalloc.Allocators()
	for _, builtin := range []string{"NL", "BL", "FPL", "BFPL", "LH", "GC", "DLS", "BLS", "Optimal"} {
		found := false
		for _, n := range names {
			if n == builtin {
				found = true
			}
		}
		if !found {
			t.Errorf("built-in %s missing from Allocators() = %v", builtin, names)
		}
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Allocators() not sorted/deduplicated: %v", names)
		}
	}
}

// TestEngineConcurrentUse: one engine, many goroutines — the scratch pool
// must keep results correct and race-free (run under -race in CI).
func TestEngineConcurrentUse(t *testing.T) {
	eng, err := regalloc.New(regalloc.WithRegisters(4))
	if err != nil {
		t.Fatal(err)
	}
	m := irgen.GenerateModule(11, 40)
	want := make([]string, len(m.Funcs))
	for i, f := range m.Funcs {
		out, err := eng.AllocateFunc(context.Background(), f)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = fmt.Sprintf("%v/%.1f", out.SpilledValues, out.SpillCost)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8*len(m.Funcs))
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each goroutine regenerates its own module: functions are
			// annotated in place during allocation, so concurrent calls
			// must not share *Func objects (the same contract the module
			// pipeline follows by partitioning indexes).
			own := irgen.GenerateModule(11, 40)
			for i, f := range own.Funcs {
				out, err := eng.AllocateFunc(context.Background(), f)
				if err != nil {
					errs <- err
					return
				}
				if got := fmt.Sprintf("%v/%.1f", out.SpilledValues, out.SpillCost); got != want[i] {
					errs <- fmt.Errorf("func %s: concurrent result %s differs from sequential %s", f.Name, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestAllocateModuleMatchesPipeline pins the façade to the internal batch
// pipeline byte for byte: the corpus modules plus 100 generated seeds must
// produce identical detailed reports through regalloc.AllocateModule and
// pipeline.RunModule.
func TestAllocateModuleMatchesPipeline(t *testing.T) {
	eng, err := regalloc.New(regalloc.WithRegisters(4), regalloc.WithJobs(4))
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, m *irx.Module) {
		t.Helper()
		got, err := eng.AllocateModule(context.Background(), m)
		if err != nil {
			t.Fatalf("%s: façade: %v", name, err)
		}
		want, err := pipeline.RunModule(context.Background(), m, pipeline.Config{Registers: 4, Jobs: 4})
		if err != nil {
			t.Fatalf("%s: pipeline: %v", name, err)
		}
		if g, w := regalloc.FormatResults(got, true), pipeline.FormatResults(want, true); g != w {
			t.Errorf("%s: façade output differs from pipeline.RunModule:\n--- façade\n%s\n--- pipeline\n%s", name, g, w)
		}
	}

	dir := filepath.Join("..", "internal", "ir", "testdata", "modules")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	corpus := 0
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".ir") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		m, err := irx.ParseModule(string(src))
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		check(e.Name(), m)
		corpus++
	}
	if corpus == 0 {
		t.Fatal("no corpus modules found")
	}
	for seed := int64(1); seed <= 100; seed++ {
		check(fmt.Sprintf("seed-%d", seed), irgen.GenerateModule(seed, 5))
	}
}

// TestAllocateStream: the streaming form yields the same results in module
// order and honours mid-stream cancellation with the typed error.
func TestAllocateStream(t *testing.T) {
	eng, err := regalloc.New(regalloc.WithRegisters(4), regalloc.WithJobs(4))
	if err != nil {
		t.Fatal(err)
	}
	m := irgen.GenerateModule(77, 30)
	batch, err := eng.AllocateModule(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	var got []regalloc.FuncResult
	err = eng.AllocateStream(context.Background(), m, func(r regalloc.FuncResult) error {
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if regalloc.FormatResults(got, true) != regalloc.FormatResults(batch, true) {
		t.Error("stream results differ from batch results")
	}

	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	err = eng.AllocateStream(ctx, m, func(r regalloc.FuncResult) error {
		if n++; n == 3 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, regalloc.ErrCanceled) {
		t.Errorf("canceled stream: err = %v, want ErrCanceled", err)
	}
}

// TestAllocateModuleCancellation: the typed partial-result contract at the
// façade level.
func TestAllocateModuleCancellation(t *testing.T) {
	eng, err := regalloc.New(regalloc.WithRegisters(4), regalloc.WithJobs(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := irgen.GenerateModule(9, 10)
	results, err := eng.AllocateModule(ctx, m)
	if !errors.Is(err, regalloc.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if len(results) != len(m.Funcs) {
		t.Fatalf("partial results length %d, want %d", len(results), len(m.Funcs))
	}
	for i := range results {
		if results[i].Err == nil && results[i].Outcome == nil {
			t.Fatalf("result %d has neither outcome nor error", i)
		}
	}
}
