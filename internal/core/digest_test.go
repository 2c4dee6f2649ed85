package core

import (
	"bufio"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/budget"
	"repro/internal/coalesce"
	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/raerr"
)

// digestFile holds one SHA-256 per case group of TestOutcomeDigest. It was
// generated once from the driver it pins and is compared, never rewritten,
// by the test: a mismatch means an observable outcome changed.
const digestFile = "testdata/outcome_digest.txt"

// digestSeeds is the irgen.FromSeed range of the digest.
const digestSeeds = 120

var (
	digestRegisters = []int{1, 2, 3, 4, 8}
	digestPolicies  = []coalesce.Policy{coalesce.Off, coalesce.Conservative, coalesce.Aggressive}
	// digestSteps is the step-budget axis: from budgets that trip in the
	// first stage to ones that reach assignment. Steps only — no deadline —
	// so every trip point is deterministic.
	digestSteps = []int64{1, 40, 150, 400, 1200, 4000}
)

// digestTarget is one target of the sweep: unconstrained, or a machine
// instantiated at the case's register count.
type digestTarget struct {
	name string
	cons func(r int) *arch.Constraints
}

var digestTargets = []digestTarget{
	{"unconstrained", func(int) *arch.Constraints { return nil }},
	{"flat", flatMachine},
	{"st231", arch.ST231.Constraints},
	{"armv7", arch.ARMv7.Constraints},
	{"jvm98", arch.JVM98.Constraints},
}

// flatMachine is the one-class machine: a single GPR class of r registers,
// no argument registers and no caller-saved ones.
func flatMachine(r int) *arch.Constraints {
	cs := &arch.Constraints{Machine: "flat"}
	cs.Classes[ir.ClassGPR] = arch.ClassFile{Cap: r}
	return cs
}

// wideSrc is a strict-SSA function with 90 values live at once: 90
// parameters, folded into one result by a chain of additions.
func wideSrc() string {
	var b strings.Builder
	b.WriteString("func wide ssa {\nb0:\n")
	for i := 0; i < 90; i++ {
		fmt.Fprintf(&b, "  v%d = param %d\n", i, i)
	}
	b.WriteString("  s1 = arith v0, v1\n")
	for i := 2; i < 90; i++ {
		fmt.Fprintf(&b, "  s%d = arith s%d, v%d\n", i, i-1, i)
	}
	b.WriteString("  ret s89\n}\n")
	return b.String()
}

// digester accumulates canonical outcome records per case group.
type digester struct {
	groups map[string][]string
}

func (d *digester) add(group, name string, out *Outcome, err error) {
	d.groups[group] = append(d.groups[group], name+"\n"+describeOutcome(out, err))
}

// describeOutcome renders every observable field the digest pins.
func describeOutcome(out *Outcome, err error) string {
	var b strings.Builder
	if err != nil {
		fmt.Fprintf(&b, "err %T", err)
		for _, s := range []error{raerr.ErrInvalidConfig, raerr.ErrUnknownAllocator, raerr.ErrNotSSA,
			raerr.ErrPressureUnsatisfiable, raerr.ErrCanceled, raerr.ErrMachineMismatch, raerr.ErrBudgetExceeded} {
			if errors.Is(err, s) {
				fmt.Fprintf(&b, " is(%v)", s)
			}
		}
		var fe *raerr.FuncError
		if errors.As(err, &fe) {
			fmt.Fprintf(&b, " stage=%s", fe.Stage)
		}
		var be *raerr.BudgetError
		if errors.As(err, &be) {
			fmt.Fprintf(&b, " budget=%s/%d/%d", be.Stage, be.Spent, be.Limit)
		}
		return b.String()
	}
	fmt.Fprintf(&b, "spilled %v\n", out.SpilledValues)
	fmt.Fprintf(&b, "cost %s\n", strconv.FormatFloat(out.SpillCost, 'g', -1, 64))
	fmt.Fprintf(&b, "maxlive %d\n", out.MaxLive)
	fmt.Fprintf(&b, "reg %v\n", out.RegisterOf)
	if out.Coalesce != nil {
		fmt.Fprintf(&b, "coalesce %+v\n", *out.Coalesce)
	}
	if dg := out.Degraded; dg != nil {
		fmt.Fprintf(&b, "degraded %s %s", dg.Rung, dg.Stage)
		if dg.Reason != nil {
			fmt.Fprintf(&b, " %s/%d/%d", dg.Reason.Stage, dg.Reason.Spent, dg.Reason.Limit)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "spent %d\n", out.BudgetSpent)
	if out.Rewritten != nil {
		b.WriteString(out.Rewritten.String())
	}
	return b.String()
}

// sums returns one "group sha256" line per group, sorted by group.
func (d *digester) sums() []string {
	lines := make([]string, 0, len(d.groups))
	for g, recs := range d.groups {
		h := sha256.New()
		for _, r := range recs {
			h.Write([]byte(r))
			h.Write([]byte{0})
		}
		lines = append(lines, fmt.Sprintf("%s %x", g, h.Sum(nil)))
	}
	sort.Strings(lines)
	return lines
}

// digestInputs returns the generated functions of one seed for a target:
// the plain irgen function, and for a machine also the machine-annotated
// one (pins, FP values, clobbering calls). Fresh copies per call, since a
// run annotates its input with loop depths.
func digestInputs(seed int64, t digestTarget, r int) []*ir.Func {
	fs := []*ir.Func{irgen.FromSeed(seed)}
	if cons := t.cons(r); cons != nil {
		fs = append(fs, irgen.ConstrainedFromSeed(seed, cons))
	}
	return fs
}

// corpusFuncs parses every function of the checked-in IR corpora.
func corpusFuncs(t *testing.T) []*ir.Func {
	t.Helper()
	paths, _ := filepath.Glob(filepath.Join("..", "ir", "testdata", "*.ir"))
	mods, _ := filepath.Glob(filepath.Join("..", "ir", "testdata", "modules", "*.ir"))
	if len(paths) == 0 {
		t.Fatal("IR corpus missing")
	}
	var fs []*ir.Func
	for _, p := range append(paths, mods...) {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		m, err := ir.ParseModule(string(src))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		fs = append(fs, m.Funcs...)
	}
	return fs
}

// TestOutcomeDigest pins the driver's observable outcomes — spill sets,
// costs, pressure, registers, rewritten bodies, coalescing stats,
// degradation rungs, budget spend and error classes — over generated
// functions × R × target × coalescing policy, a step-budget axis with and
// without degradation, the IR corpora, and a function wider than 64
// registers. The committed digest is the reference; the test never
// rewrites it.
func TestOutcomeDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("full outcome sweep")
	}
	d := &digester{groups: map[string][]string{}}
	for _, tg := range digestTargets {
		for _, r := range digestRegisters {
			for _, pol := range digestPolicies {
				group := fmt.Sprintf("seeds/%s/R=%d/%s", tg.name, r, pol)
				for seed := int64(0); seed < digestSeeds; seed++ {
					for i, f := range digestInputs(seed, tg, r) {
						out, err := Run(f, Config{Registers: r, Constraints: tg.cons(r), Coalescing: pol})
						d.add(group, fmt.Sprintf("%d/%d", seed, i), out, err)
					}
				}
			}
			// Allocation decisions only: no assignment, no rewrite.
			group := fmt.Sprintf("skip-rewrite/%s/R=%d", tg.name, r)
			for seed := int64(0); seed < digestSeeds; seed += 3 {
				for i, f := range digestInputs(seed, tg, r) {
					out, err := Run(f, Config{Registers: r, Constraints: tg.cons(r), SkipRewrite: true})
					d.add(group, fmt.Sprintf("%d/%d", seed, i), out, err)
				}
			}
		}
		// Budget axis: steps only, with and without degradation.
		for _, steps := range digestSteps {
			for _, degrade := range []bool{false, true} {
				group := fmt.Sprintf("budget/%s/steps=%d/degrade=%v", tg.name, steps, degrade)
				for seed := int64(0); seed < digestSeeds; seed += 2 {
					r := digestRegisters[seed%int64(len(digestRegisters))]
					pol := digestPolicies[seed%int64(len(digestPolicies))]
					for i, f := range digestInputs(seed, tg, r) {
						out, err := Run(f, Config{Registers: r, Constraints: tg.cons(r), Coalescing: pol,
							Budget: budget.Limits{Steps: steps}, Degrade: degrade})
						d.add(group, fmt.Sprintf("%d/%d", seed, i), out, err)
					}
				}
			}
		}
		// Admission gate, and non-default allocators on every target.
		for _, degrade := range []bool{false, true} {
			group := fmt.Sprintf("admission/%s/degrade=%v", tg.name, degrade)
			for seed := int64(0); seed < digestSeeds; seed += 4 {
				for i, f := range digestInputs(seed, tg, 3) {
					out, err := Run(f, Config{Registers: 3, Constraints: tg.cons(3),
						Budget: budget.Limits{MaxValues: 24}, Degrade: degrade})
					d.add(group, fmt.Sprintf("%d/%d", seed, i), out, err)
				}
			}
		}
		for _, name := range []string{"NL", "BL", "FPL", "LH", "GC", "DLS", "BLS"} {
			group := fmt.Sprintf("allocator/%s/%s", tg.name, name)
			for seed := int64(0); seed < digestSeeds; seed += 2 {
				for i, f := range digestInputs(seed, tg, 3) {
					a, err := AllocatorByName(name)
					if err != nil {
						t.Fatal(err)
					}
					out, err := Run(f, Config{Registers: 3, Constraints: tg.cons(3), Allocator: a})
					d.add(group, fmt.Sprintf("%d/%d", seed, i), out, err)
				}
			}
		}
		// The checked-in corpora, fresh parse per register count.
		for _, r := range digestRegisters {
			for _, pol := range digestPolicies {
				group := fmt.Sprintf("corpus/%s/R=%d/%s", tg.name, r, pol)
				for i, f := range corpusFuncs(t) {
					out, err := Run(f, Config{Registers: r, Constraints: tg.cons(r), Coalescing: pol})
					d.add(group, fmt.Sprintf("%d/%s", i, f.Name), out, err)
				}
			}
		}
	}

	// 90 values live at once at R=100: unconstrained allocates them all
	// (registers 0–89); a machine class of 100 registers is rejected.
	wide, err := Run(ir.MustParse(wideSrc()), Config{Registers: 100})
	if err != nil {
		t.Fatalf("wide unconstrained: %v", err)
	}
	if len(wide.SpilledValues) != 0 || wide.MaxLive != 90 {
		t.Fatalf("wide unconstrained: %d spills, MaxLive %d", len(wide.SpilledValues), wide.MaxLive)
	}
	maxReg := -1
	for _, reg := range wide.RegisterOf {
		maxReg = max(maxReg, reg)
	}
	if maxReg != 89 {
		t.Fatalf("wide unconstrained: highest register %d, want 89", maxReg)
	}
	d.add("wide", "unconstrained", wide, nil)
	wideM, err := Run(ir.MustParse(wideSrc()), Config{Registers: 100, Constraints: flatMachine(100)})
	if !errors.Is(err, raerr.ErrInvalidConfig) {
		t.Fatalf("wide machine: got %v, want ErrInvalidConfig", err)
	}
	d.add("wide", "machine", wideM, err)

	got := d.sums()
	want := readDigest(t)
	wantSet := map[string]bool{}
	for _, l := range want {
		wantSet[l] = true
	}
	gotSet := map[string]bool{}
	bad := 0
	for _, l := range got {
		gotSet[l] = true
		if !wantSet[l] {
			t.Errorf("outcome digest differs: %s", l)
			bad++
		}
	}
	for _, l := range want {
		if !gotSet[l] {
			t.Errorf("digest line not reproduced: %s", l)
			bad++
		}
	}
	if bad > 0 {
		t.Logf("fresh digest (%d groups):\n%s", len(got), strings.Join(got, "\n"))
	}
}

func readDigest(t *testing.T) []string {
	t.Helper()
	fh, err := os.Open(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	var lines []string
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		if l := strings.TrimSpace(sc.Text()); l != "" && !strings.HasPrefix(l, "#") {
			lines = append(lines, l)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}
