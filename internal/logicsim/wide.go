package logicsim

import (
	"errors"
	"fmt"
)

// The wide lane layer generalizes the 64-bit machine word to an N-word
// lane block: 64*N independent bit-lanes ride one flat circuit walk.
// The fault simulator's fault-parallel engine puts the good machine
// plus 255 faulty machines in the lanes of a 4-word block; the ATE's
// chip-parallel lot engine puts the good machine plus 255 defective
// chips there. Lane blocks are stored stride-packed: a slot's block is
// the W contiguous words at [slot*W, slot*W+W), lane L living in word
// L/64 bit L%64 — so the whole value plane is one contiguous []uint64
// and the walk stays a linear sweep.

// MaxLaneWords bounds the lane-block width: up to 512 lanes per walk.
// Wider blocks stop paying — the value plane falls out of cache before
// the per-gate overhead amortizes any further.
const MaxLaneWords = 8

// ErrLaneWords marks a lane-block word count outside 1..MaxLaneWords.
// Every wide-layer entry point (simulators, forcing tables, block
// packing and conversion) wraps it, so callers can errors.Is a shape
// mistake regardless of which layer caught it.
var ErrLaneWords = errors.New("lane-block word count outside range")

// validLaneWords rejects widths outside 1..MaxLaneWords.
func validLaneWords(words int) error {
	if words < 1 || words > MaxLaneWords {
		return fmt.Errorf("logicsim: lane block of %d words outside 1..%d: %w", words, MaxLaneWords, ErrLaneWords)
	}
	return nil
}

// WidePatternBlock packs up to 64*Words patterns: lane p of input i's
// block is pattern p's value of input i — the N-word generalization of
// PatternBlock. Input i's block is Inputs[i*Words : (i+1)*Words].
type WidePatternBlock struct {
	Inputs []uint64 // stride-packed lane blocks, one per primary input
	Words  int      // words per lane block (1..MaxLaneWords)
	Count  int      // number of valid patterns (1..64*Words)
}

// PackWidePatterns packs up to 64*words patterns into a wide block. All
// patterns must have the same width (the circuit's input count).
func PackWidePatterns(patterns []Pattern, words int) (WidePatternBlock, error) {
	if err := validLaneWords(words); err != nil {
		return WidePatternBlock{}, err
	}
	if max := 64 * words; len(patterns) == 0 || len(patterns) > max {
		return WidePatternBlock{}, fmt.Errorf("logicsim: wide block needs 1..%d patterns, got %d", max, len(patterns))
	}
	width := len(patterns[0])
	inputs := make([]uint64, width*words)
	for p, pat := range patterns {
		if len(pat) != width {
			return WidePatternBlock{}, fmt.Errorf("logicsim: pattern %d width %d != %d", p, len(pat), width)
		}
		for i, v := range pat {
			if v {
				inputs[i*words+p>>6] |= 1 << uint(p&63)
			}
		}
	}
	return WidePatternBlock{Inputs: inputs, Words: words, Count: len(patterns)}, nil
}

// WidenBlock converts a packed 64-pattern block to a words-wide lane
// block: the block's patterns occupy lanes 0..Count-1 (word 0 of every
// input's lane block), the remaining lanes are zero. A word count
// outside 1..MaxLaneWords is rejected with ErrLaneWords, and a block
// whose shape cannot have come from PackPatterns (Count outside 1..64)
// is rejected before any allocation — the zero-value PatternBlock being
// the classic way to hit it.
func WidenBlock(b PatternBlock, words int) (WidePatternBlock, error) {
	if err := validLaneWords(words); err != nil {
		return WidePatternBlock{}, err
	}
	if b.Count < 1 || b.Count > 64 {
		return WidePatternBlock{}, fmt.Errorf("logicsim: block Count %d outside 1..64 (zero-value PatternBlock?)", b.Count)
	}
	inputs := make([]uint64, len(b.Inputs)*words)
	for i, w := range b.Inputs {
		inputs[i*words] = w
	}
	return WidePatternBlock{Inputs: inputs, Words: words, Count: b.Count}, nil
}

// MaskInto appends the valid-lane mask (Words words) to dst.
func (b WidePatternBlock) MaskInto(dst []uint64) []uint64 {
	dst = dst[:0]
	for k := 0; k < b.Words; k++ {
		lo := k * 64
		switch {
		case b.Count >= lo+64:
			dst = append(dst, ^uint64(0))
		case b.Count > lo:
			dst = append(dst, (uint64(1)<<uint(b.Count-lo))-1)
		default:
			dst = append(dst, 0)
		}
	}
	return dst
}

// validate rejects a wide block whose shape cannot have come from
// PackWidePatterns, mirroring PatternBlock.validate.
func (b WidePatternBlock) validate(nIn int) error {
	if err := validLaneWords(b.Words); err != nil {
		return err
	}
	if len(b.Inputs) != nIn*b.Words {
		return fmt.Errorf("logicsim: wide block has %d words for %d inputs × %d words", len(b.Inputs), nIn, b.Words)
	}
	if max := 64 * b.Words; b.Count < 1 || b.Count > max {
		return fmt.Errorf("logicsim: wide block Count %d outside 1..%d (zero-value block?)", b.Count, max)
	}
	return nil
}

// WideLaneForces is a multi-fault forcing table over the lanes of an
// N-word lane block: each forced slot carries a care mask (which lanes
// are forced there) and force bits (their stuck values), applied as
// v = (v &^ care) | force word by word. Stem forces overwrite a slot's
// output block; pin forces overwrite one fanin block during that slot's
// evaluation only (the fanout-branch semantics). Adding the same site
// twice on an overlapping lane keeps the last value, matching how a
// physical short list is applied in order, and Reset is O(1) via an
// epoch bump. Not safe for concurrent use.
//
// Storage is by fault *site*, not by slot: a slot gets a site entry the
// first time a fault is added there and keeps it across Resets. An
// engine forces the faults of one fault universe over and over, and a
// universe touches a small fraction of a large circuit's slots, so the
// table costs one int32 per slot plus one entry per distinct site ever
// forced — not a full mask block per slot.
type WideLaneForces struct {
	f      *Flat
	words  int     // current lane-block width
	stride int     // words per site entry: 2 × the width the table was built for
	epoch  int32   // current epoch; a site whose mark differs is empty
	site   []int32 // per slot: its site entry, -1 until a fault is added there
	mark   []int32 // per site: the epoch its entries belong to
	// stem holds the stem masks of every site, care and force
	// interleaved: site i owns stem[i*stride : i*stride+2*words), care
	// block first, force block second. Builds and force application
	// always touch a site's care and force words together, so keeping
	// the pair adjacent makes the common case one cache line per site
	// instead of two. An all-zero care block means no stem fault on the
	// site this epoch.
	stem []uint64
	// pins holds the per-input-pin masks of each site, truncated to zero
	// length when the site is first touched in a new epoch.
	pins [][]widePin
}

// widePin is one forced input pin of a slot. The masks are fixed-size
// so pin entries recycle across epochs without reallocation; only the
// leading `words` entries are meaningful.
type widePin struct {
	pin         int32
	care, force [MaxLaneWords]uint64
}

// NewWideLaneForces allocates a forcing table of 64*words lanes for the
// flat circuit. SetWords can later narrow it (and widen it back up to
// words).
func NewWideLaneForces(f *Flat, words int) (*WideLaneForces, error) {
	if err := validLaneWords(words); err != nil {
		return nil, err
	}
	site := make([]int32, f.Slots())
	for i := range site {
		site[i] = -1
	}
	return &WideLaneForces{f: f, words: words, stride: 2 * words, epoch: 1, site: site}, nil
}

// Lanes returns the number of bit-lanes of the table.
func (lf *WideLaneForces) Lanes() int { return 64 * lf.words }

// Words returns the lane-block width in machine words.
func (lf *WideLaneForces) Words() int { return lf.words }

// Reset empties the table for reuse in O(1).
func (lf *WideLaneForces) Reset() { lf.epoch++ }

// SetWords empties the table and changes its lane-block width, within
// the width it was built for: how a lot engine re-strides one table as
// a batch compacts onto fewer words instead of keeping a table per
// width.
func (lf *WideLaneForces) SetWords(words int) error {
	if err := validLaneWords(words); err != nil {
		return err
	}
	if 2*words > lf.stride {
		return fmt.Errorf("logicsim: %d-word forcing table built for %d words: %w", words, lf.stride/2, ErrLaneWords)
	}
	lf.words = words
	lf.Reset()
	return nil
}

// Add forces the fault onto one lane. On a lane already forced at the
// same site, the new stuck value wins.
func (lf *WideLaneForces) Add(f Injection, lane int) error {
	si, err := lf.f.resolve(f)
	if err != nil {
		return err
	}
	if lane < 0 || lane >= lf.Lanes() {
		return fmt.Errorf("logicsim: lane %d outside 0..%d", lane, lf.Lanes()-1)
	}
	lf.AddResolved(si, lane)
	return nil
}

// AddResolved forces a pre-resolved fault onto one lane. The caller
// guarantees the injection came from ResolveInjections on the same
// flat circuit and that lane is inside 0..Lanes()-1; no per-call
// validation is repeated. Overlap semantics match Add: the new stuck
// value wins.
//
//repolint:hotpath
func (lf *WideLaneForces) AddResolved(f SlotInjection, lane int) {
	si := lf.site[f.Slot]
	if si < 0 {
		si = lf.newSite(f.Slot)
	}
	base := int(si) * lf.stride
	if lf.mark[si] != lf.epoch {
		lf.mark[si] = lf.epoch
		for k := 0; k < 2*lf.words; k++ {
			lf.stem[base+k] = 0
		}
		lf.pins[si] = lf.pins[si][:0]
	}
	word, bit := lane>>6, uint(lane&63)
	if f.Pin < 0 {
		o := base + word
		lf.stem[o] |= 1 << bit
		if f.Stuck {
			lf.stem[o+lf.words] |= 1 << bit
		} else {
			lf.stem[o+lf.words] &^= 1 << bit
		}
		return
	}
	for i := range lf.pins[si] {
		if pl := &lf.pins[si][i]; pl.pin == f.Pin {
			pl.care[word] |= 1 << bit
			if f.Stuck {
				pl.force[word] |= 1 << bit
			} else {
				pl.force[word] &^= 1 << bit
			}
			return
		}
	}
	var pl widePin
	pl.pin = f.Pin
	pl.care[word] |= 1 << bit
	if f.Stuck {
		pl.force[word] |= 1 << bit
	}
	lf.pins[si] = append(lf.pins[si], pl)
}

// Reserve gives every site of the fault list its table entry, with room
// for each of its distinct forced pins, and empties the table: builds
// from the list's faults never allocate afterwards. A lot engine calls
// it once per fault universe.
func (lf *WideLaneForces) Reserve(faults []SlotInjection) {
	lf.Reset()
	for _, f := range faults {
		lf.AddResolved(f, 0)
	}
	lf.Reset()
}

// newSite gives a slot its site entry, on the first fault ever added
// there. The entry starts stale (mark 0 never equals a live epoch), so
// the caller's first-touch clear initializes it.
func (lf *WideLaneForces) newSite(slot int32) int32 {
	si := int32(len(lf.mark))
	lf.site[slot] = si
	lf.mark = append(lf.mark, 0)
	lf.stem = append(lf.stem, make([]uint64, lf.stride)...)
	lf.pins = append(lf.pins, nil)
	return si
}

// forcedSite returns the site entry of a slot carrying forces this
// epoch, or -1.
//
//repolint:hotpath
func (lf *WideLaneForces) forcedSite(slot int) int {
	if lf == nil {
		return -1
	}
	si := lf.site[slot]
	if si < 0 || lf.mark[si] != lf.epoch {
		return -1
	}
	return int(si)
}

// WideSim is the N-word walk state over a Flat: one stride-packed lane
// block per slot, reused across runs. Not safe for concurrent use;
// create one per goroutine over the shared Flat.
type WideSim struct {
	f     *Flat
	words int
	val   []uint64 // stride-packed value plane, slot s at [s*words, s*words+words)
	stage []uint64 // fanin staging scratch for pin-forced gates
}

// NewWideSim allocates wide walk state of 64*words lanes for the flat
// circuit. SetWords can later narrow it (and widen it back up to
// words).
func NewWideSim(f *Flat, words int) (*WideSim, error) {
	if err := validLaneWords(words); err != nil {
		return nil, err
	}
	maxFanin := 0
	for s := 0; s < f.Slots(); s++ {
		maxFanin = max(maxFanin, int(f.faninAt[s+1]-f.faninAt[s]))
	}
	// The staging scratch is sized for the widest gate up front, so a
	// walk never grows it.
	return &WideSim{f: f, words: words, val: make([]uint64, f.Slots()*words),
		stage: make([]uint64, maxFanin*words)}, nil
}

// SetWords changes the lane-block width, within the width the
// simulator was built for: the value plane is re-strided in place, so
// a lot engine compacting a batch onto fewer words keeps one value
// plane instead of one per width. Values from earlier runs are not
// carried over.
func (s *WideSim) SetWords(words int) error {
	if err := validLaneWords(words); err != nil {
		return err
	}
	if n := s.f.Slots() * words; n > cap(s.val) {
		return fmt.Errorf("logicsim: %d-word walk exceeds the width the simulator was built for: %w", words, ErrLaneWords)
	}
	s.words = words
	s.val = s.val[:s.f.Slots()*words]
	return nil
}

// Flat returns the compiled form the simulator walks.
func (s *WideSim) Flat() *Flat { return s.f }

// Words returns the lane-block width in machine words.
func (s *WideSim) Words() int { return s.words }

// Lanes returns the number of bit-lanes per walk.
func (s *WideSim) Lanes() int { return 64 * s.words }

// ValueWords returns the lane block of a slot after the last run. The
// returned slice aliases the value plane; callers must not mutate it.
func (s *WideSim) ValueWords(slot int) []uint64 {
	return s.val[slot*s.words : (slot+1)*s.words]
}

// Broadcast spreads bit p of a 64-bit word across every lane of the
// slot's value — how engines seed frontier slots with good-machine
// values before a subset walk.
func (s *WideSim) Broadcast(slot int, word uint64, p int) {
	b := -(word >> uint(p) & 1)
	o := slot * s.words
	for k := 0; k < s.words; k++ {
		s.val[o+k] = b
	}
}

// RunInto simulates a wide pattern block (lanes carry patterns) and
// appends the stride-packed primary-output lane blocks to out, reusing
// its capacity: the N-word counterpart of FlatSim.RunInto.
func (s *WideSim) RunInto(block WidePatternBlock, out []uint64) ([]uint64, error) {
	f := s.f
	if err := block.validate(f.numIn); err != nil {
		return nil, err
	}
	if block.Words != s.words {
		return nil, fmt.Errorf("logicsim: %d-word block through a %d-word simulator", block.Words, s.words)
	}
	copy(s.val[:f.numIn*s.words], block.Inputs)
	s.walkForced(nil)
	return s.appendOutputs(out), nil
}

// RunLaneForced evaluates pattern p of the block across all 64*Words
// lanes in one flat walk: every lane sees the same input bits
// (broadcast from bit p of each packed input word) and each forced site
// applies its lane masks. Lanes carrying no fault — lane 0 by engine
// convention — compute the good circuit. Output lane blocks are
// appended stride-packed to out (reused when capacity allows) in
// primary-output order.
//
//repolint:hotpath
func (s *WideSim) RunLaneForced(block PatternBlock, p int, lf *WideLaneForces, out []uint64) ([]uint64, error) {
	f := s.f
	if err := block.validate(f.numIn); err != nil {
		return nil, err
	}
	if p < 0 || p >= block.Count {
		return nil, errPatternRange(p, block.Count)
	}
	if lf.f != f || lf.words != s.words {
		return nil, errForcesShape(lf.words)
	}
	w := s.words
	for i := 0; i < f.numIn; i++ {
		b := -(block.Inputs[i] >> uint(p) & 1)
		o := i * w
		if si := lf.forcedSite(i); si >= 0 {
			sb := si * lf.stride
			for k := 0; k < w; k++ {
				s.val[o+k] = b&^lf.stem[sb+k] | lf.stem[sb+w+k]
			}
		} else {
			for k := 0; k < w; k++ {
				s.val[o+k] = b
			}
		}
	}
	s.walkForced(lf)
	return s.appendOutputs(out), nil
}

// EvalSlotsForced evaluates only the given slots, in order, with the
// forcing table applied — the subset walk behind the fault-parallel
// engine's union-cone passes. slots must be ascending (slot order is
// topological); values of fanins outside the subset are whatever the
// caller staged (typically good-machine Broadcasts). Input slots inside
// the subset are re-broadcast from the good simulator's value before
// stem forcing, so a forced primary input works like any other site.
func (s *WideSim) EvalSlotsForced(good *FlatSim, p int, slots []int32, lf *WideLaneForces) error {
	if good.f != s.f {
		return fmt.Errorf("logicsim: good-machine simulator walks a different flat circuit")
	}
	if lf != nil && (lf.f != s.f || lf.words != s.words) {
		return fmt.Errorf("logicsim: forcing table shape (%d words) does not match simulator", lf.words)
	}
	w := s.words
	for _, s32 := range slots {
		slot := int(s32)
		if s.f.op[slot] == opInput {
			b := -(good.val[slot] >> uint(p) & 1)
			o := slot * w
			if si := lf.forcedSite(slot); si >= 0 {
				sb := si * lf.stride
				for k := 0; k < w; k++ {
					s.val[o+k] = b&^lf.stem[sb+k] | lf.stem[sb+w+k]
				}
			} else {
				for k := 0; k < w; k++ {
					s.val[o+k] = b
				}
			}
			continue
		}
		s.evalForcedSlot(slot, lf)
	}
	return nil
}

// appendOutputs appends the primary-output lane blocks to out.
func (s *WideSim) appendOutputs(out []uint64) []uint64 {
	out = out[:0]
	w := s.words
	for _, os := range s.f.outSlot {
		o := int(os) * w
		out = append(out, s.val[o:o+w]...)
	}
	return out
}

// errPatternRange and errForcesShape build RunLaneForced's validation
// errors outside the annotated hot function, keeping fmt off the hot
// path.
func errPatternRange(p, count int) error {
	return fmt.Errorf("logicsim: pattern %d outside block of %d", p, count)
}

func errForcesShape(words int) error {
	return fmt.Errorf("logicsim: forcing table shape (%d words) does not match simulator", words)
}

// walkForced is the wide hot loop: one linear pass over the logic
// slots; lf == nil walks unforced. The width dispatch is hoisted out
// of the loop so the specialized widths pay one kernel call per slot
// instead of riding through evalForcedSlot's per-slot switch — at
// width 1, the steady state of the compacting lot engine, that inner
// dispatch was a second dynamic call on every gate.
//
//repolint:hotpath
func (s *WideSim) walkForced(lf *WideLaneForces) {
	f := s.f
	switch s.words {
	case 1:
		for slot := f.numIn; slot < len(f.op); slot++ {
			s.evalForcedSlot1(slot, lf)
		}
	case 4:
		for slot := f.numIn; slot < len(f.op); slot++ {
			s.evalForcedSlot4(slot, lf)
		}
	default:
		for slot := f.numIn; slot < len(f.op); slot++ {
			s.evalForcedSlot(slot, lf)
		}
	}
}

// evalForcedSlot evaluates one logic slot into the value plane,
// applying the slot's pin forces during evaluation and its stem force
// to the result. Width dispatch: the 4-word width the engines batch at
// gets the unrolled kernel in wide4.go, the 1-word width their dead-lane
// compaction collapses to gets the scalar kernel in wide1.go, and every
// other width (2, 3, 5..8) takes the generic stride loops below. An
// 8-word unroll does not earn its bytes: BenchmarkWideWidths shows
// per-lane cost improving only through W≈5 and regressing by W=8, where
// the stride-8 value plane spills the close caches and the walk goes
// memory-bound — the stride loop's bounds checks hide behind the
// misses, and the engines batch at 4 words anyway.
//
//repolint:hotpath
func (s *WideSim) evalForcedSlot(slot int, lf *WideLaneForces) {
	switch s.words {
	case 1:
		s.evalForcedSlot1(slot, lf)
		return
	case 4:
		s.evalForcedSlot4(slot, lf)
		return
	}
	w := s.words
	o := slot * w
	dst := s.val[o : o+w]
	if si := lf.forcedSite(slot); si >= 0 {
		if pins := lf.pins[si]; len(pins) > 0 {
			s.evalStaged(slot, dst, pins)
		} else {
			s.evalSlot(slot, dst)
		}
		sb := si * lf.stride
		for k := 0; k < w; k++ {
			dst[k] = dst[k]&^lf.stem[sb+k] | lf.stem[sb+w+k]
		}
		return
	}
	s.evalSlot(slot, dst)
}

// evalSlot is the unforced wide gate evaluation: a single op switch,
// word loops over the stride-packed fanin blocks.
//
//repolint:hotpath
func (s *WideSim) evalSlot(slot int, dst []uint64) {
	f := s.f
	w := s.words
	val, fanin := s.val, f.fanin
	lo := f.faninAt[slot]
	switch f.op[slot] {
	case opBuf:
		a := int(fanin[lo]) * w
		copy(dst, val[a:a+w])
	case opNot:
		a := int(fanin[lo]) * w
		for k := 0; k < w; k++ {
			dst[k] = ^val[a+k]
		}
	case opAnd2:
		a, b := int(fanin[lo])*w, int(fanin[lo+1])*w
		for k := 0; k < w; k++ {
			dst[k] = val[a+k] & val[b+k]
		}
	case opNand2:
		a, b := int(fanin[lo])*w, int(fanin[lo+1])*w
		for k := 0; k < w; k++ {
			dst[k] = ^(val[a+k] & val[b+k])
		}
	case opOr2:
		a, b := int(fanin[lo])*w, int(fanin[lo+1])*w
		for k := 0; k < w; k++ {
			dst[k] = val[a+k] | val[b+k]
		}
	case opNor2:
		a, b := int(fanin[lo])*w, int(fanin[lo+1])*w
		for k := 0; k < w; k++ {
			dst[k] = ^(val[a+k] | val[b+k])
		}
	case opXor2:
		a, b := int(fanin[lo])*w, int(fanin[lo+1])*w
		for k := 0; k < w; k++ {
			dst[k] = val[a+k] ^ val[b+k]
		}
	case opXnor2:
		a, b := int(fanin[lo])*w, int(fanin[lo+1])*w
		for k := 0; k < w; k++ {
			dst[k] = ^(val[a+k] ^ val[b+k])
		}
	default:
		s.evalWideN(slot, dst)
	}
}

// evalWideN evaluates the wide (3+ fanin) op codes.
func (s *WideSim) evalWideN(slot int, dst []uint64) {
	f := s.f
	w := s.words
	val := s.val
	fanin := f.fanin[f.faninAt[slot]:f.faninAt[slot+1]]
	op := f.op[slot]
	a := int(fanin[0]) * w
	copy(dst, val[a:a+w])
	switch op {
	case opAndN, opNandN:
		for _, fs := range fanin[1:] {
			b := int(fs) * w
			for k := 0; k < w; k++ {
				dst[k] &= val[b+k]
			}
		}
	case opOrN, opNorN:
		for _, fs := range fanin[1:] {
			b := int(fs) * w
			for k := 0; k < w; k++ {
				dst[k] |= val[b+k]
			}
		}
	case opXorN, opXnorN:
		for _, fs := range fanin[1:] {
			b := int(fs) * w
			for k := 0; k < w; k++ {
				dst[k] ^= val[b+k]
			}
		}
	default:
		panic(fmt.Sprintf("logicsim: evalWideN on op %d", op))
	}
	if op == opNandN || op == opNorN || op == opXnorN {
		for k := 0; k < w; k++ {
			dst[k] = ^dst[k]
		}
	}
}

// evalStaged evaluates a pin-forced slot: fanin lane blocks are staged,
// the pin masks applied, then the op evaluated over the staged blocks.
func (s *WideSim) evalStaged(slot int, dst []uint64, pins []widePin) {
	f := s.f
	w := s.words
	lo, hi := f.faninAt[slot], f.faninAt[slot+1]
	n := int(hi-lo) * w
	stage := s.stage[:n]
	for i, fs := range f.fanin[lo:hi] {
		copy(stage[i*w:(i+1)*w], s.val[int(fs)*w:int(fs)*w+w])
	}
	for i := range pins {
		pl := &pins[i]
		o := int(pl.pin) * w
		for k := 0; k < w; k++ {
			stage[o+k] = stage[o+k]&^pl.care[k] | pl.force[k]
		}
	}
	op := f.op[slot]
	copy(dst, stage[:w])
	switch op {
	case opBuf:
	case opNot:
		for k := 0; k < w; k++ {
			dst[k] = ^dst[k]
		}
	case opAnd2, opNand2, opAndN, opNandN:
		for o := w; o < n; o += w {
			for k := 0; k < w; k++ {
				dst[k] &= stage[o+k]
			}
		}
		if op == opNand2 || op == opNandN {
			for k := 0; k < w; k++ {
				dst[k] = ^dst[k]
			}
		}
	case opOr2, opNor2, opOrN, opNorN:
		for o := w; o < n; o += w {
			for k := 0; k < w; k++ {
				dst[k] |= stage[o+k]
			}
		}
		if op == opNor2 || op == opNorN {
			for k := 0; k < w; k++ {
				dst[k] = ^dst[k]
			}
		}
	case opXor2, opXnor2, opXorN, opXnorN:
		for o := w; o < n; o += w {
			for k := 0; k < w; k++ {
				dst[k] ^= stage[o+k]
			}
		}
		if op == opXnor2 || op == opXnorN {
			for k := 0; k < w; k++ {
				dst[k] = ^dst[k]
			}
		}
	default:
		panic(fmt.Sprintf("logicsim: evalStaged on op %d", op))
	}
}
