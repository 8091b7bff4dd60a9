package detect

import (
	"math/bits"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/assemble"
	"repro/internal/conftypes"
	"repro/internal/dataset"
	"repro/internal/rules"
	"repro/internal/stats"
	"repro/internal/sysimage"
	"repro/internal/templates"
)

// Plan is a compiled, immutable check plan: everything the four anomaly
// checks need from the training side — per-attribute histograms,
// cardinalities, precomputed scores, resolved type checkers, compiled
// rule/template pairs, and a pruned entry-name index for misspelling
// suggestions — resolved once at Compile time and shared read-only across
// any number of scan workers. Every training attribute owns a dense slot
// (its index in attrStore); per-image values live in pooled scratch
// indexed by slot, so Check builds no dataset, no histogram, no per-image
// map, and (for names already seen in training) no strings.
//
// A Plan snapshots the detector's training view at Compile time; mutating
// the training dataset afterwards is not reflected (compile a new Plan).
// Check is safe for concurrent use and produces reports identical to
// Detector.Check, which remains the reference implementation.
type Plan struct {
	samples   int
	suspLimit int
	assembler *assemble.Assembler

	// attrStore backs attrs with one allocation and defines the slots: an
	// attribute's slot is its index here. attrs resolves a name to its
	// attribute once per streamed name.
	attrStore []planAttr
	attrs     map[string]*planAttr

	// types carries TrainingTypes declarations for target-assembly type
	// resolution (the map AssembleTarget would consult per image). Types of
	// training attributes are also copied onto planAttr.typ by finish.
	types map[string]conftypes.Type

	// nameIdx lists the non-augmented training attributes in declaration
	// order for nearest-name search, each with a character signature for
	// pruning.
	nameIdx []nameCand

	// rules pairs each learned rule with its resolved template; rules
	// whose template is not installed are dropped at compile time, exactly
	// as checkCorrelations skips them.
	rules []planRule

	pool sync.Pool
}

// planAttr is one training attribute's compiled summary.
type planAttr struct {
	decl dataset.Attribute
	// slot is the attribute's index in Plan.attrStore.
	slot int32
	// typ is the attribute's TrainingTypes declaration when typed is set —
	// TypeOf's answer without a map lookup.
	typ   conftypes.Type
	typed bool
	// has mirrors Detector.trainingHas (Present > 0).
	has bool
	// hist is the value histogram sorted by value. A sorted slice instead
	// of a map keeps the representation identical to the serialized
	// PlanSpec form, so a decoded plan aliases its spec's slices instead of
	// rebuilding per-attribute maps — the check side only ever asks for
	// membership (histHas).
	hist []PlanSpecHistEntry
	card int
	// trivial caches decl.Type.IsTrivial().
	trivial bool
	// typeScore is checkTypes' cardinality-derived score.
	typeScore float64
	// suspScore is checkSuspiciousValues' score for an unseen value.
	suspScore float64
	// suspSkip marks attributes too diverse to carry peer signal
	// (card*2 >= samples).
	suspSkip bool
	// check is the resolved type checker; nil means the type always
	// passes (String/Enum/unknown defs).
	check func(v string, img *sysimage.Image) (syntacticOK, semanticOK bool)
}

// sortedHist converts a training histogram map into the plan's sorted
// slice form (nil for an empty histogram, matching the spec encoding).
func sortedHist(m map[string]int) []PlanSpecHistEntry {
	if len(m) == 0 {
		return nil
	}
	hist := make([]PlanSpecHistEntry, 0, len(m))
	for v, n := range m {
		hist = append(hist, PlanSpecHistEntry{Value: v, Count: n})
	}
	sort.Slice(hist, func(a, b int) bool { return hist[a].Value < hist[b].Value })
	return hist
}

// histHas reports whether v appeared in training — binary search over the
// sorted histogram. Attributes diverse enough for this to matter are
// suspSkip'd anyway, so the searched slices stay small.
func (pa *planAttr) histHas(v string) bool {
	lo, hi := 0, len(pa.hist)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if pa.hist[mid].Value < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(pa.hist) && pa.hist[lo].Value == v
}

// nameCand is one candidate for nearest-name search.
type nameCand struct {
	name string
	sig  uint64
}

// planRule is one learned rule with its template and attribute slots
// resolved. A slot of -1 names an attribute the plan did not compile; its
// values, if the target has any, are found by name among the target-only
// slots.
type planRule struct {
	rule         *rules.Rule
	tpl          *templates.Template
	slotA, slotB int32
}

// charSig folds a string's bytes into a 64-bit set (one bit per byte
// class). Each unit edit changes at most one byte, hence adds at most one
// bit to either side's exclusive set, so
// popcount(sig(a) &^ sig(b)) <= editDistance(a, b): the signature test
// only ever skips candidates that true edit distance would reject too.
func charSig(s string) uint64 {
	var sig uint64
	for i := 0; i < len(s); i++ {
		sig |= 1 << (s[i] & 63)
	}
	return sig
}

// Compile builds the immutable check plan for this detector's current
// training view, rules, templates, and assembler.
func (dt *Detector) Compile() *Plan {
	attrs := dt.Training.Attributes()
	checkers := newCheckerCache(dt.Assembler.Inferencer)
	p := &Plan{
		samples:   dt.Training.Samples(),
		suspLimit: dt.SuspiciousValueLimit,
		assembler: dt.Assembler,
		attrStore: make([]planAttr, len(attrs)),
		types:     make(map[string]conftypes.Type, len(attrs)),
	}
	for i, a := range attrs {
		hist := sortedHist(dt.Training.Histogram(a.Name))
		pa := &p.attrStore[i]
		*pa = planAttr{
			decl:    a,
			has:     dt.Training.Present(a.Name) > 0,
			hist:    hist,
			card:    len(hist),
			trivial: a.Type.IsTrivial(),
			check:   checkers.get(a.Type),
		}
		pa.deriveScores(p.samples)
		if !a.Augmented {
			p.nameIdx = append(p.nameIdx, nameCand{name: a.Name, sig: charSig(a.Name)})
		}
	}
	if dt.TrainingTypes != nil {
		for _, a := range dt.TrainingTypes.Attributes() {
			p.types[a.Name] = a.Type
		}
	}
	for _, r := range dt.Rules {
		if tpl := dt.template(r.Template); tpl != nil {
			p.rules = append(p.rules, planRule{rule: r, tpl: tpl})
		}
	}
	return p.finish()
}

// finish indexes a plan whose attrStore, types and rules are filled in:
// it gives every attribute its slot and its TrainingTypes declaration,
// resolves every rule's attribute slots, and arms the scratch pool.
// Compile and NewPlanFromSpec both end here, so a plan rebuilt from its
// spec resolves exactly like the compiled original.
func (p *Plan) finish() *Plan {
	p.attrs = make(map[string]*planAttr, len(p.attrStore))
	for i := range p.attrStore {
		pa := &p.attrStore[i]
		pa.slot = int32(i)
		pa.typ, pa.typed = p.types[pa.decl.Name]
		p.attrs[pa.decl.Name] = pa
	}
	for i := range p.rules {
		pr := &p.rules[i]
		pr.slotA, pr.slotB = p.slotOf(pr.rule.AttrA), p.slotOf(pr.rule.AttrB)
	}
	p.pool.New = func() any { return newScratch(p) }
	return p
}

// slotOf returns a training attribute's slot, or -1.
func (p *Plan) slotOf(name string) int32 {
	if pa, ok := p.attrs[name]; ok {
		return pa.slot
	}
	return -1
}

// deriveScores computes the per-attribute check parameters that follow
// from the histogram cardinality, the Augmented flag, and the sample
// count. Compile and NewPlanFromSpec both go through it, so a plan rebuilt
// from its serialized spec is arithmetically identical to the originally
// compiled one.
func (pa *planAttr) deriveScores(samples int) {
	pa.typeScore = 50.0
	if pa.card == 1 {
		pa.typeScore = 90
	} else if pa.card > 1 {
		pa.typeScore = 50 + 30/float64(pa.card)
	}
	if pa.card == 1 {
		pa.suspScore = 70
		if pa.decl.Augmented {
			pa.suspScore = 75
		}
	} else {
		pa.suspScore = 5 * stats.ICF(pa.card, samples)
	}
	pa.suspSkip = pa.card*2 >= samples
}

// checkerCache memoizes compileChecker per type for one plan build: the
// distinct-type count is tiny next to the attribute count, so caching
// avoids re-resolving the def and re-allocating an identical closure for
// every attribute.
type checkerCache struct {
	inf   *conftypes.Inferencer
	byTyp map[conftypes.Type]func(string, *sysimage.Image) (bool, bool)
}

func newCheckerCache(inf *conftypes.Inferencer) *checkerCache {
	return &checkerCache{inf: inf, byTyp: make(map[conftypes.Type]func(string, *sysimage.Image) (bool, bool), 16)}
}

func (cc *checkerCache) get(t conftypes.Type) func(string, *sysimage.Image) (bool, bool) {
	if c, ok := cc.byTyp[t]; ok {
		return c
	}
	c := compileChecker(cc.inf, t)
	cc.byTyp[t] = c
	return c
}

// compileChecker resolves Inferencer.CheckValue's type dispatch once per
// type. A nil checker means every value passes both steps.
func compileChecker(inf *conftypes.Inferencer, t conftypes.Type) func(string, *sysimage.Image) (bool, bool) {
	switch t {
	case conftypes.TypeString, "":
		return nil
	case conftypes.TypeBoolean:
		return func(v string, _ *sysimage.Image) (bool, bool) {
			ok := conftypes.IsBooleanWord(v)
			return ok, ok
		}
	case conftypes.TypeEnum:
		return nil
	}
	def := inf.Def(t)
	if def == nil {
		return nil
	}
	if def.Verify == nil {
		return func(v string, _ *sysimage.Image) (bool, bool) {
			ok := def.Match(v)
			return ok, ok
		}
	}
	return func(v string, img *sysimage.Image) (bool, bool) {
		if !def.Match(v) {
			return false, false
		}
		return true, def.Verify(v, img)
	}
}

// declState is the target-side Augmented flag of a target-only attribute.
// The legacy target dataset declares every parsed entry name
// (non-augmented) before emitting the row, so a plain Declare always wins
// regardless of stream order; otherwise the first augmented Declare
// decides.
type declState uint8

const (
	declNone declState = iota
	declAug
	declPlain
)

// extraName is one interned target-only name (a name the plan did not
// compile) and the slot it holds in the image whose generation it records.
type extraName struct {
	name string
	gen  uint32
	slot int32
}

// scratch is the per-image working state of one Check call, pooled and
// reused across images. It implements assemble.TargetSink, receiving the
// streamed target attributes into a slot table: slots below
// len(p.attrStore) are the plan's attributes, the ones above are this
// image's target-only names in first-use order.
type scratch struct {
	p   *Plan
	img *sysimage.Image

	// vals holds each slot's values for the current image; touched lists
	// the slots holding any, in first-Add order. The checks walk touched,
	// and reset empties exactly those slots, keeping their capacity.
	vals    [][]string
	touched []int32

	// last/lastSlot cache the latest name resolution: the stream interns a
	// name and then passes the same string to TypeOf, Declare and Add.
	last     string
	lastSlot int32

	// extra interns target-only names across the images this scratch
	// serves (bounded in reset); gen stamps which image an entry's slot
	// belongs to. extraNames and extraAug describe the current image's
	// target-only slots, indexed by slot - len(p.attrStore).
	extra      map[string]*extraName
	gen        uint32
	extraNames []string
	extraAug   []declState

	// typeMemo caches InferValue results per image for attributes absent
	// from the training types, reproducing the first-occurrence-wins type
	// map of AssembleTarget.
	typeMemo map[string]conftypes.Type

	// edPrev/edCur are the edit-distance DP rows.
	edPrev, edCur []int

	// msg is the buffer warning messages are built in. Each message spells
	// exactly what the legacy detector's fmt.Sprintf format gives (%q is
	// strconv.Quote, %d strconv's base-10 form).
	msg []byte

	// warnings collects the report in kind order; types and susp are the
	// per-kind buckets the fused attribute walk fills.
	warnings, types, susp []*Warning

	ctx templates.Ctx
}

func newScratch(p *Plan) *scratch {
	n := len(p.attrStore)
	return &scratch{
		p:        p,
		vals:     make([][]string, n, n+16),
		touched:  make([]int32, 0, 1+n/2),
		lastSlot: -1,
		extra:    make(map[string]*extraName, 16),
		gen:      1,
		typeMemo: make(map[string]conftypes.Type, 8),
	}
}

// maxExtraInterned bounds the per-scratch interner for target-only names
// so a pathological corpus cannot grow it without limit.
const maxExtraInterned = 1 << 14

// reset clears the per-image state. The interner survives (that is its
// purpose); advancing gen retires every entry's slot at once. Slot value
// slices are zeroed so the pool does not pin the last image's strings.
func (s *scratch) reset() {
	for _, slot := range s.touched {
		vs := s.vals[slot]
		clear(vs)
		s.vals[slot] = vs[:0]
	}
	s.touched = s.touched[:0]
	s.extraNames = s.extraNames[:0]
	s.extraAug = s.extraAug[:0]
	s.last, s.lastSlot = "", -1
	if s.gen++; s.gen == 0 || len(s.extra) > maxExtraInterned {
		clear(s.extra)
		s.gen = 1
	}
	if len(s.typeMemo) > 0 {
		clear(s.typeMemo)
	}
	s.warnings = s.warnings[:0]
	s.types = s.types[:0]
	s.susp = s.susp[:0]
	s.img = nil
	s.ctx = templates.Ctx{}
}

// release returns the scratch to the pool with per-image state cleared.
func (s *scratch) release() {
	s.reset()
	s.p.pool.Put(s)
}

// slotOf resolves a streamed name to its slot, giving a target-only name
// the next free slot on first use in this image.
func (s *scratch) slotOf(name string) int32 {
	if s.lastSlot >= 0 && name == s.last {
		return s.lastSlot
	}
	var slot int32
	if pa, ok := s.p.attrs[name]; ok {
		slot = pa.slot
	} else {
		e := s.extra[name]
		if e == nil {
			e = &extraName{name: name}
			s.extra[name] = e
		}
		slot = s.extraSlot(e)
	}
	s.last, s.lastSlot = name, slot
	return slot
}

// extraSlot returns a target-only name's slot in the current image.
func (s *scratch) extraSlot(e *extraName) int32 {
	if e.gen != s.gen {
		e.gen = s.gen
		e.slot = int32(len(s.p.attrStore) + len(s.extraNames))
		s.extraNames = append(s.extraNames, e.name)
		s.extraAug = append(s.extraAug, declNone)
		if int(e.slot) == len(s.vals) {
			s.vals = append(s.vals, nil)
		}
	}
	return e.slot
}

// valuesAt returns the current image's values of a rule attribute: its
// compiled slot, or for slot -1 the target-only slot of that name.
func (s *scratch) valuesAt(slot int32, name string) []string {
	if slot < 0 {
		e := s.extra[name]
		if e == nil || e.gen != s.gen {
			return nil
		}
		slot = e.slot
	}
	return s.vals[slot]
}

// Declare implements assemble.TargetSink.
func (s *scratch) Declare(name string, _ conftypes.Type, augmented bool) {
	i := int(s.slotOf(name)) - len(s.p.attrStore)
	if i < 0 {
		// Training declarations come first in the legacy target dataset,
		// so its flag wins; the plan reads it from planAttr directly.
		return
	}
	if !augmented {
		s.extraAug[i] = declPlain
	} else if s.extraAug[i] == declNone {
		s.extraAug[i] = declAug
	}
}

// Add implements assemble.TargetSink.
func (s *scratch) Add(name, value string) {
	slot := s.slotOf(name)
	vs := s.vals[slot]
	if len(vs) == 0 {
		s.touched = append(s.touched, slot)
	}
	s.vals[slot] = append(vs, value)
}

// TypeOf implements assemble.TargetSink.
func (s *scratch) TypeOf(name, value string) conftypes.Type {
	if slot := s.slotOf(name); int(slot) < len(s.p.attrStore) {
		if pa := &s.p.attrStore[slot]; pa.typed {
			return pa.typ
		}
	} else if t, ok := s.p.types[name]; ok {
		return t
	}
	if t, ok := s.typeMemo[name]; ok {
		return t
	}
	t := s.p.assembler.Inferencer.InferValue(value, s.img)
	s.typeMemo[name] = t
	return t
}

// InternName implements assemble.TargetSink. It resolves the name's slot
// as well, so the TypeOf, Declare and Add that follow hit slotOf's cache.
func (s *scratch) InternName(name []byte) string {
	if pa, ok := s.p.attrs[string(name)]; ok {
		s.last, s.lastSlot = pa.decl.Name, pa.slot
		return pa.decl.Name
	}
	e := s.extra[string(name)]
	if e == nil {
		n := string(name)
		e = &extraName{name: n}
		s.extra[n] = e
	}
	s.last, s.lastSlot = e.name, s.extraSlot(e)
	return e.name
}

// Check assembles the target image into pooled scratch and runs the four
// anomaly checks against the compiled tables, returning a report
// identical to Detector.Check's.
//
// The entry-name, data-type and suspicious-value checks run fused in one
// walk over the touched slots; the kinds are then concatenated in the
// legacy order (names, correlations, types, suspicious). The final stable
// (Score, Attr) sort leaves equal keys in that concatenation order, and
// within one kind equal keys come from one attribute in value order, so
// the report does not depend on the walk order.
func (p *Plan) Check(img *sysimage.Image) (*Report, error) {
	s := p.pool.Get().(*scratch)
	s.img = img
	if err := p.assembler.StreamTarget(img, s); err != nil {
		s.release()
		return nil, err
	}
	s.ctx = templates.Ctx{Image: img}

	ws := p.checkAttrs(s, s.warnings[:0])
	ws = p.checkCorrelations(s, ws)
	ws = append(ws, s.types...)
	ws = append(ws, p.limitSuspicious(s.susp)...)

	sortWarnings(ws)
	// nil for a clean image, exactly like the legacy detector's
	// unappended nil slice.
	var out []*Warning
	if len(ws) > 0 {
		out = make([]*Warning, len(ws))
		copy(out, ws)
	}
	for i, w := range out {
		w.Rank = i + 1
	}
	s.warnings = ws
	s.release()
	return &Report{SystemID: img.ID, Warnings: out}, nil
}

// checkAttrs is checkNames, checkTypes and checkSuspiciousValues compiled
// and fused into one walk over the touched slots. Name warnings go to ws;
// type and suspicious warnings fill the scratch's per-kind buckets.
func (p *Plan) checkAttrs(s *scratch, ws []*Warning) []*Warning {
	n := int32(len(p.attrStore))
	for _, slot := range s.touched {
		if slot >= n {
			// A target-only name: only the name check applies, and an
			// augmentation of an unseen entry is noise (the entry itself
			// is the warning).
			if s.extraAug[slot-n] != declAug {
				ws = p.appendNameWarning(s, ws, s.extraNames[slot-n])
			}
			continue
		}
		pa := &p.attrStore[slot]
		if !pa.has {
			if !pa.decl.Augmented {
				ws = p.appendNameWarning(s, ws, pa.decl.Name)
			}
			continue
		}
		values := s.vals[slot]
		if !pa.decl.Augmented && !pa.trivial {
			s.types = p.appendTypeWarnings(s, s.types, pa, values)
		}
		if !pa.suspSkip {
			s.susp = p.appendSuspicious(s, s.susp, pa, values)
		}
	}
	return ws
}

// appendNameWarning flags an entry never seen in training, with a
// nearest-name suggestion when one is within edit distance 2.
// Environment attributes are not configuration entries and never flag.
func (p *Plan) appendNameWarning(s *scratch, ws []*Warning, attr string) []*Warning {
	if isEnvAttr(attr) {
		return ws
	}
	b := strconv.AppendQuote(append(s.msg[:0], "entry "...), attr)
	b = append(b, " was never seen in the training set"...)
	score := 20.0
	if near := p.nearest(s, attr); near != "" {
		b = append(strconv.AppendQuote(append(b, " (did you mean "...), near), "?)"...)
		score = 35.0
	}
	s.msg = b
	return append(ws, &Warning{Kind: KindName, Attr: attr, Message: string(b), Score: score})
}

// nearest is nearestTrainingAttr over the compiled name index: the same
// declaration-order scan with the same shrinking bound, plus two sound
// prefilters (length difference and character signature) that only skip
// candidates editDistance would have rejected at the current bound.
func (p *Plan) nearest(s *scratch, attr string) string {
	sig := charSig(attr)
	best, bestDist := "", 3
	for i := range p.nameIdx {
		c := &p.nameIdx[i]
		if d := len(c.name) - len(attr); d >= bestDist || -d >= bestDist {
			continue
		}
		if bits.OnesCount64(sig&^c.sig) >= bestDist || bits.OnesCount64(c.sig&^sig) >= bestDist {
			continue
		}
		if c.name == attr {
			continue
		}
		if d := s.editDistance(attr, c.name, bestDist); d < bestDist {
			best, bestDist = c.name, d
		}
	}
	return best
}

// editDistance is the bounded Levenshtein distance over the scratch's
// reusable DP rows.
func (s *scratch) editDistance(a, b string, bound int) int {
	if abs(len(a)-len(b)) >= bound {
		return bound
	}
	n := len(b) + 1
	if cap(s.edPrev) < n {
		s.edPrev = make([]int, n)
		s.edCur = make([]int, n)
	}
	return editDistanceInto(a, b, bound, s.edPrev[:n], s.edCur[:n])
}

// checkCorrelations is checkCorrelations compiled: templates and
// attribute slots were resolved per rule at Compile time.
func (p *Plan) checkCorrelations(s *scratch, ws []*Warning) []*Warning {
	for i := range p.rules {
		pr := &p.rules[i]
		r := pr.rule
		va := s.valuesAt(pr.slotA, r.AttrA)
		vb := s.valuesAt(pr.slotB, r.AttrB)
		if len(va) == 0 || len(vb) == 0 {
			continue // absent entries: rule is ignored (Section 6)
		}
		holds, applicable := pr.tpl.Validate(va, vb, &s.ctx)
		if !applicable || holds {
			continue
		}
		joinedA := strings.Join(va, ";")
		b := append(append(s.msg[:0], "correlation "...), r.Spec...)
		b = append(append(append(b, " violated: "...), r.AttrA...), '=')
		b = append(append(append(strconv.AppendQuote(b, joinedA), " vs "...), r.AttrB...), '=')
		b = strconv.AppendQuote(b, strings.Join(vb, ";"))
		s.msg = b
		ws = append(ws, &Warning{
			Kind:    KindCorrelation,
			Attr:    r.AttrA,
			Value:   joinedA,
			Rule:    r,
			Message: string(b),
			Score:   40 + 20*r.Confidence,
		})
	}
	return ws
}

// appendTypeWarnings is checkTypes for one attribute: the type dispatch
// and the cardinality score were resolved at Compile time.
func (p *Plan) appendTypeWarnings(s *scratch, ws []*Warning, pa *planAttr, values []string) []*Warning {
	for _, v := range values {
		if conftypes.LooksLikeRegexOrGlob(v) {
			continue
		}
		syn, sem := true, true
		if pa.check != nil {
			syn, sem = pa.check(v, s.img)
		}
		if syn && sem {
			continue
		}
		step := "semantic verification"
		if !syn {
			step = "syntactic match"
		}
		b := strconv.AppendQuote(append(s.msg[:0], "value "...), v)
		b = append(append(append(b, " of "...), pa.decl.Name...), " fails "...)
		b = append(append(append(b, step...), " for type "...), pa.decl.Type...)
		s.msg = b
		ws = append(ws, &Warning{
			Kind:    KindType,
			Attr:    pa.decl.Name,
			Value:   v,
			Message: string(b),
			Score:   pa.typeScore,
		})
	}
	return ws
}

// appendSuspicious is checkSuspiciousValues for one attribute: histogram,
// cardinality, ICF, and the resulting score come from the plan.
func (p *Plan) appendSuspicious(s *scratch, ws []*Warning, pa *planAttr, values []string) []*Warning {
	for _, v := range values {
		if pa.histHas(v) {
			continue
		}
		b := strconv.AppendQuote(append(s.msg[:0], "value "...), v)
		b = append(append(append(b, " of "...), pa.decl.Name...), " never appeared in "...)
		b = append(strconv.AppendInt(b, int64(p.samples), 10), " training systems ("...)
		b = append(strconv.AppendInt(b, int64(pa.card), 10), " distinct values seen)"...)
		s.msg = b
		ws = append(ws, &Warning{
			Kind:    KindSuspicious,
			Attr:    pa.decl.Name,
			Value:   v,
			Message: string(b),
			Score:   pa.suspScore,
		})
	}
	return ws
}

// limitSuspicious applies SuspiciousValueLimit. The cut keeps the first
// warnings in (Score, Attr) order, exactly as the legacy detector does;
// without a cut the final report sort alone decides the order.
func (p *Plan) limitSuspicious(sus []*Warning) []*Warning {
	if p.suspLimit > 0 && len(sus) > p.suspLimit {
		sortWarnings(sus)
		sus = sus[:p.suspLimit]
	}
	return sus
}
