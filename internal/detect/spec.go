package detect

import (
	"fmt"
	"sort"

	"repro/internal/assemble"
	"repro/internal/conftypes"
	"repro/internal/dataset"
	"repro/internal/rules"
	"repro/internal/templates"
)

// PlanSpec is the serializable content of a compiled Plan: everything
// Compile derived from the training view, in a deterministic order, with
// all runtime-only state (checkers, pools, derived scores) stripped.
// internal/planio encodes a PlanSpec to the binary plan format;
// NewPlanFromSpec turns a decoded spec back into a live Plan. Derived
// quantities (cardinality, type/suspicion scores, prefilter skip flags)
// are intentionally not carried — they are recomputed by the same code
// Compile uses, so a round-tripped plan cannot drift from a compiled one.
type PlanSpec struct {
	// Samples is the training-population size.
	Samples int
	// SuspLimit caps suspicious-value warnings per report (0 = no cap).
	SuspLimit int
	// Attrs lists the compiled attributes in declaration order.
	Attrs []PlanSpecAttr
	// Types carries the target-assembly type declarations (the
	// TrainingTypes map), sorted by name.
	Types []PlanSpecType
	// Rules lists the learned rules whose templates resolved at compile
	// time, in plan order.
	Rules []*rules.Rule
}

// PlanSpecAttr is one attribute's serialized summary.
type PlanSpecAttr struct {
	Name      string
	Type      conftypes.Type
	Augmented bool
	// Has mirrors planAttr.has (attribute observed with a value in
	// training).
	Has bool
	// Sig is the misspelling-prefilter character signature of Name; stored
	// in the binary format so the nearest-name index loads without
	// recomputation.
	Sig uint64
	// Hist is the value histogram, sorted by value for determinism.
	Hist []PlanSpecHistEntry
}

// PlanSpecHistEntry is one histogram bucket.
type PlanSpecHistEntry struct {
	Value string
	Count int
}

// PlanSpecType is one target-assembly type declaration.
type PlanSpecType struct {
	Name string
	Type conftypes.Type
}

// Spec extracts the serializable content of a compiled plan. The result is
// deterministic: attributes keep their declaration order, histograms are
// sorted by value, and the type table is sorted by name, so encoding the
// same plan twice yields identical bytes.
func (p *Plan) Spec() *PlanSpec {
	spec := &PlanSpec{
		Samples:   p.samples,
		SuspLimit: p.suspLimit,
		Attrs:     make([]PlanSpecAttr, len(p.attrStore)),
		Types:     make([]PlanSpecType, 0, len(p.types)),
		Rules:     make([]*rules.Rule, len(p.rules)),
	}
	for i := range p.attrStore {
		pa := &p.attrStore[i]
		sa := &spec.Attrs[i]
		*sa = PlanSpecAttr{
			Name:      pa.decl.Name,
			Type:      pa.decl.Type,
			Augmented: pa.decl.Augmented,
			Has:       pa.has,
			Sig:       charSig(pa.decl.Name),
		}
		// The plan keeps histograms in spec form (sorted by value), so the
		// spec aliases them; both sides treat the slices as immutable.
		sa.Hist = pa.hist
	}
	for name, t := range p.types {
		spec.Types = append(spec.Types, PlanSpecType{Name: name, Type: t})
	}
	sort.Slice(spec.Types, func(a, b int) bool { return spec.Types[a].Name < spec.Types[b].Name })
	for i, pr := range p.rules {
		spec.Rules[i] = pr.rule
	}
	return spec
}

// NewPlanFromSpec rebuilds a live Plan from a (decoded) spec, resolving
// type checkers against the assembler's inferencer and rule templates
// against tpls — the same resolution Compile performs, so checking with
// the rebuilt plan is byte-identical to checking with the original. A nil
// assembler gets a fresh default one; nil templates get the predefined
// set (mirroring detect.New). Rules whose template is not installed are
// dropped, exactly as Compile drops them.
func NewPlanFromSpec(spec *PlanSpec, asm *assemble.Assembler, tpls []*templates.Template) (*Plan, error) {
	if spec == nil {
		return nil, fmt.Errorf("detect: nil plan spec")
	}
	if asm == nil {
		asm = assemble.New()
	}
	if tpls == nil {
		tpls = templates.Predefined()
	}
	checkers := newCheckerCache(asm.Inferencer)
	p := &Plan{
		samples:   spec.Samples,
		suspLimit: spec.SuspLimit,
		assembler: asm,
		attrStore: make([]planAttr, len(spec.Attrs)),
		types:     make(map[string]conftypes.Type, len(spec.Types)),
		nameIdx:   make([]nameCand, 0, len(spec.Attrs)),
	}
	for i := range spec.Attrs {
		sa := &spec.Attrs[i]
		pa := &p.attrStore[i]
		// The histogram slice is aliased, not copied: the plan and the spec
		// share the sorted-by-value representation, and neither mutates it.
		*pa = planAttr{
			decl:    dataset.Attribute{Name: sa.Name, Type: sa.Type, Augmented: sa.Augmented},
			has:     sa.Has,
			hist:    sa.Hist,
			card:    len(sa.Hist),
			trivial: sa.Type.IsTrivial(),
			check:   checkers.get(sa.Type),
		}
		pa.deriveScores(p.samples)
		if !sa.Augmented {
			p.nameIdx = append(p.nameIdx, nameCand{name: sa.Name, sig: sa.Sig})
		}
	}
	for _, ty := range spec.Types {
		p.types[ty.Name] = ty.Type
	}
	for _, r := range spec.Rules {
		if tpl := findTemplate(tpls, r.Template); tpl != nil {
			p.rules = append(p.rules, planRule{rule: r, tpl: tpl})
		}
	}
	return p.finish(), nil
}

// findTemplate resolves a template ID against an installed set (the
// package-level twin of Detector.template).
func findTemplate(tpls []*templates.Template, id string) *templates.Template {
	for _, t := range tpls {
		if t.ID == id {
			return t
		}
	}
	return nil
}

// Samples reports the training-population size the plan was compiled from.
func (p *Plan) Samples() int { return p.samples }

// RuleCount reports the number of rules the plan checks (rules whose
// template did not resolve at compile time are excluded).
func (p *Plan) RuleCount() int { return len(p.rules) }

// AttrCount reports the number of compiled training attributes.
func (p *Plan) AttrCount() int { return len(p.attrStore) }
