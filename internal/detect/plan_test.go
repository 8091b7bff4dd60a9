package detect

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/assemble"
	"repro/internal/conftypes"
	"repro/internal/dataset"
	"repro/internal/rules"
	"repro/internal/sysimage"
)

// randomName draws an attribute-like name: app prefix, a few path
// segments over a small alphabet so edit-distance neighbours are common.
func randomName(rng *rand.Rand) string {
	const alphabet = "abcde_"
	apps := []string{"mysql", "apache", "php"}
	n := 3 + rng.Intn(8)
	b := make([]byte, 0, n+8)
	b = append(b, apps[rng.Intn(len(apps))]...)
	b = append(b, ':')
	for i := 0; i < n; i++ {
		if i > 0 && i%4 == 0 {
			b = append(b, '/')
			continue
		}
		b = append(b, alphabet[rng.Intn(len(alphabet))])
	}
	return string(b)
}

// TestPlanNearestMatchesBruteForce is the pruned misspelling index's
// property test: against random training vocabularies and random probes
// (including near-misses of real names), Plan.nearest must return exactly
// what the legacy declaration-order scan returns.
func TestPlanNearestMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		d := dataset.New()
		for i := 0; i < 60; i++ {
			d.DeclareAttr(randomName(rng), conftypes.TypeString, rng.Intn(4) == 0)
		}
		dt := New(d, nil)
		p := dt.Compile()
		s := p.pool.Get().(*scratch)
		attrs := d.Attributes()
		for probe := 0; probe < 80; probe++ {
			var name string
			if probe%2 == 0 {
				name = randomName(rng)
			} else {
				// Mutate a real name so suggestions actually fire.
				base := []byte(attrs[rng.Intn(len(attrs))].Name)
				pos := rng.Intn(len(base))
				switch rng.Intn(3) {
				case 0:
					base[pos] = "abcde_"[rng.Intn(6)]
				case 1:
					base = append(base[:pos], base[pos:]...)
					base[pos] = 'x'
				case 2:
					base = append(base[:pos], base[min(pos+1, len(base)):]...)
				}
				name = string(base)
			}
			want := dt.nearestTrainingAttr(name)
			got := p.nearest(s, name)
			if want != got {
				t.Fatalf("trial %d: nearest(%q) = %q, legacy %q", trial, name, got, want)
			}
		}
		s.release()
	}
}

// TestCharSigBoundsEditDistance verifies the pruning invariant the name
// index relies on: the signature popcount never exceeds the true edit
// distance, so signature-based skips are always sound.
func TestCharSigBoundsEditDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		a, b := randomName(rng), randomName(rng)
		d := editDistance(a, b, 1<<30)
		sa, sb := charSig(a), charSig(b)
		if lb := bits.OnesCount64(sa &^ sb); lb > d {
			t.Fatalf("sig lower bound %d > distance %d for %q vs %q", lb, d, a, b)
		}
		if lb := bits.OnesCount64(sb &^ sa); lb > d {
			t.Fatalf("sig lower bound %d > distance %d for %q vs %q", lb, d, b, a)
		}
	}
}

// TestEditDistanceIntoMatchesAlloc pins the buffer-reusing DP against the
// allocating wrapper across random pairs and bounds.
func TestEditDistanceIntoMatchesAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := &scratch{}
	for i := 0; i < 5000; i++ {
		a, b := randomName(rng), randomName(rng)
		bound := 1 + rng.Intn(6)
		if got, want := s.editDistance(a, b, bound), editDistance(a, b, bound); got != want {
			t.Fatalf("editDistance(%q, %q, %d) = %d via scratch, %d via alloc", a, b, bound, got, want)
		}
	}
}

// TestPlanRulesDropMissingTemplates pins compile-time rule resolution: a
// rule naming an uninstalled template is dropped (the legacy
// checkCorrelations skip), while rules with installed templates compile.
func TestPlanRulesDropMissingTemplates(t *testing.T) {
	d := dataset.New()
	d.DeclareAttr("mysql:a", conftypes.TypeString, false)
	dt := New(d, nil)
	dt.Rules = []*rules.Rule{
		{Template: "no-such-template", AttrA: "mysql:a", AttrB: "mysql:a"},
		{Template: dt.Templates[0].ID, AttrA: "mysql:a", AttrB: "mysql:a"},
	}
	p := dt.Compile()
	if len(p.rules) != 1 || p.rules[0].tpl != dt.Templates[0] {
		t.Fatalf("compiled %d rules; want exactly the one with an installed template", len(p.rules))
	}
}

// TestScratchArenaReuse pins scratch reuse across images: repeated checks
// through one scratch must not leak previously-scanned values into later
// reports (covered end to end by the reused-scratch equivalence test,
// verified here at the unit level). Each round outgrows the slot table's
// initial capacity and reuses every target-only slot under a fresh
// generation.
func TestScratchArenaReuse(t *testing.T) {
	p := (&Plan{}).finish()
	s := p.pool.Get().(*scratch)
	for round := 0; round < 3; round++ {
		for i := 0; i < 700; i++ {
			name := fmt.Sprintf("attr-%d", i)
			s.Declare(name, conftypes.TypeString, false)
			s.Add(name, fmt.Sprintf("v%d-%d", round, i))
		}
		for i := 0; i < 700; i++ {
			vs := s.valuesAt(-1, fmt.Sprintf("attr-%d", i))
			if len(vs) != 1 || vs[0] != fmt.Sprintf("v%d-%d", round, i) {
				t.Fatalf("round %d attr-%d: values = %v", round, i, vs)
			}
		}
		// Multi-instance attributes must keep append order.
		s.Add("multi", "one")
		s.Add("multi", "two")
		s.Add("multi", "three")
		if got := s.valuesAt(-1, "multi"); len(got) != 3 || got[0] != "one" || got[2] != "three" {
			t.Fatalf("round %d multi: %v", round, got)
		}
		if len(s.touched) != 701 {
			t.Fatalf("round %d: %d touched slots, want 701", round, len(s.touched))
		}
		s.reset()
		if got := s.valuesAt(-1, "multi"); got != nil {
			t.Fatalf("round %d: values survived reset: %v", round, got)
		}
	}
}

// TestPlanRuleOverUncompiledAttrs covers a rule whose attributes the plan
// did not compile (possible for a hand-built profile or a decoded plan):
// its slots resolve to -1 and the check must find the target's values by
// name among the target-only slots, exactly as the legacy detector finds
// them in its row.
func TestPlanRuleOverUncompiledAttrs(t *testing.T) {
	keys := []string{"port"}
	var training []*sysimage.Image
	for i := 0; i < 4; i++ {
		training = append(training, flatImage(fmt.Sprintf("train-%d", i), map[string]string{"port": "3306"}, keys))
	}
	ds, err := assemble.New().AssembleTraining(training)
	if err != nil {
		t.Fatal(err)
	}
	rule := &rules.Rule{Template: "num-lt", Spec: "[A:Number] < [B:Number]",
		AttrA: "mysql:mysqld/low", AttrB: "mysql:mysqld/high", Confidence: 1}
	dt := New(ds, []*rules.Rule{rule})
	plan := dt.Compile()
	if pr := plan.rules[0]; pr.slotA != -1 || pr.slotB != -1 {
		t.Fatalf("rule slots = %d, %d; want -1, -1 for uncompiled attributes", pr.slotA, pr.slotB)
	}
	target := flatImage("target", map[string]string{"port": "3306", "low": "9", "high": "5"}, []string{"port", "low", "high"})
	legacy, err := dt.Check(target)
	if err != nil {
		t.Fatal(err)
	}
	got, err := plan.Check(target)
	if err != nil {
		t.Fatal(err)
	}
	if legacy.RankOf(func(w *Warning) bool { return w.Kind == KindCorrelation }) == 0 {
		t.Fatalf("legacy detector missed the violated rule: %v", renderAll(legacy.Warnings))
	}
	if !reflect.DeepEqual(legacy, got) {
		t.Fatalf("plan report differs:\n%v\nlegacy\n%v", renderAll(got.Warnings), renderAll(legacy.Warnings))
	}
}
