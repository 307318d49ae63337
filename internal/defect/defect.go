// Package defect models the physical side of the experiment: how
// manufacturing defects land on chips and how each physical defect
// maps to one or more logical stuck-at faults. The paper stresses that
// its parameter n0 — the average number of *logical faults* on a
// defective chip — is not the average number of *physical defects*
// (D0·A): "In a high-density circuit, a physical defect can produce
// several logical faults."
package defect

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/numeric"
)

// CountModel selects the distribution of physical defects per chip.
type CountModel int

// Count models.
const (
	// PoissonDefects: independent defects, mean D0·A.
	PoissonDefects CountModel = iota
	// ClusteredDefects: negative-binomial defects (gamma-mixed
	// Poisson), the Stapper picture behind Eq. 3.
	ClusteredDefects
)

// String names the count model.
func (m CountModel) String() string {
	switch m {
	case PoissonDefects:
		return "poisson"
	case ClusteredDefects:
		return "clustered"
	default:
		return fmt.Sprintf("CountModel(%d)", int(m))
	}
}

// Model generates physical defects and converts them to logical faults.
type Model struct {
	// D0A is the mean number of physical defects per chip (defect
	// density times chip area).
	D0A float64
	// Count selects the per-chip defect count distribution.
	Count CountModel
	// Cluster is the negative-binomial clustering parameter (1/λ in
	// the paper's Eq. 3 notation); used only by ClusteredDefects.
	Cluster float64
	// FaultsPerDefect is the mean number of logical faults one physical
	// defect produces (>= 1); the per-defect count is shifted-Poisson
	// with this mean.
	FaultsPerDefect float64
	// Locality is the fraction of a defect's faults drawn from a
	// window of structurally nearby gates (same layout neighbourhood);
	// the remainder is uniform. In [0,1].
	Locality float64
	// Window is the gate-ID radius of the locality window; defaults to
	// 5% of the fault list when zero.
	Window int
}

// Validate checks the configuration.
func (m Model) Validate() error {
	if !(m.D0A >= 0) {
		return fmt.Errorf("defect: D0A must be >= 0, got %v", m.D0A)
	}
	if m.Count == ClusteredDefects && !(m.Cluster > 0) {
		return fmt.Errorf("defect: clustered model needs Cluster > 0, got %v", m.Cluster)
	}
	if !(m.FaultsPerDefect >= 1) {
		return fmt.Errorf("defect: FaultsPerDefect must be >= 1, got %v", m.FaultsPerDefect)
	}
	if !(m.Locality >= 0 && m.Locality <= 1) {
		return fmt.Errorf("defect: Locality must be in [0,1], got %v", m.Locality)
	}
	return nil
}

// DefectCount draws the number of physical defects on one chip.
func (m Model) DefectCount(rng *rand.Rand) int {
	if m.D0A == 0 {
		return 0
	}
	switch m.Count {
	case ClusteredDefects:
		nb := dist.NegativeBinomial{R: m.Cluster, Mu: m.D0A}
		return nb.Sample(rng)
	default:
		p := dist.Poisson{Lambda: m.D0A}
		return p.Sample(rng)
	}
}

// TheoreticalYield returns the zero-defect probability of the model.
func (m Model) TheoreticalYield() float64 {
	switch m.Count {
	case ClusteredDefects:
		nb := dist.NegativeBinomial{R: m.Cluster, Mu: m.D0A}
		return nb.PMF(0)
	default:
		return dist.Poisson{Lambda: m.D0A}.PMF(0)
	}
}

// ExpectedN0 returns the model-implied average number of logical faults
// on a *defective* chip: E[faults | defects >= 1] =
// FaultsPerDefect * E[defects | defects >= 1].
func (m Model) ExpectedN0() float64 {
	y := m.TheoreticalYield()
	if y >= 1 {
		return 1
	}
	// E[defects | >=1] = E[defects] / P(>=1).
	return m.FaultsPerDefect * m.D0A / (1 - y)
}

// CastFaults maps ndefects physical defects onto distinct logical
// faults from a universe of size total. Each defect yields a
// shifted-Poisson number of faults with mean FaultsPerDefect, placed
// near a random center (locality) or uniformly. The returned indices
// are distinct and sorted; a chip cannot carry the same stuck-at fault
// twice.
func (m Model) CastFaults(rng *rand.Rand, total, ndefects int) []int {
	if total <= 0 || ndefects <= 0 {
		return nil
	}
	c := newFaultCaster(total)
	return m.cast(&c, rng, ndefects)
}

// faultCaster is the per-lot scratch of the physical path. A fault
// index is chosen on the current chip iff its mark equals epoch, so
// starting the next chip is one increment, not a clear; list collects
// the chip's choices in draw order.
type faultCaster struct {
	mark  []uint32
	epoch uint32
	list  []int
}

func newFaultCaster(total int) faultCaster {
	return faultCaster{mark: make([]uint32, total)}
}

// cast draws one chip's faults into the caster's list and returns it
// sorted. The list is scratch: it is overwritten by the next call.
func (m Model) cast(c *faultCaster, rng *rand.Rand, ndefects int) []int {
	c.list = c.list[:0]
	if ndefects <= 0 {
		return nil
	}
	total := len(c.mark)
	c.epoch++
	if c.epoch == 0 {
		clear(c.mark)
		c.epoch = 1
	}
	window := m.Window
	if window <= 0 {
		window = total / 20
		if window < 4 {
			window = 4
		}
	}
	fpd := dist.ShiftedPoisson{N0: m.FaultsPerDefect}
	for d := 0; d < ndefects; d++ {
		k := fpd.Sample(rng)
		center := rng.Intn(total)
		for j := 0; j < k; j++ {
			var idx int
			if rng.Float64() < m.Locality {
				idx = center + rng.Intn(2*window+1) - window
				idx = numeric.ClampInt(idx, 0, total-1)
			} else {
				idx = rng.Intn(total)
			}
			// Distinctness: probe linearly from the collision.
			for c.mark[idx] == c.epoch {
				idx = (idx + 1) % total
				if len(c.list) >= total {
					break
				}
			}
			if len(c.list) < total {
				c.mark[idx] = c.epoch
				c.list = append(c.list, idx)
			}
		}
	}
	slices.Sort(c.list)
	return c.list
}

// faultMoments returns the mean and variance of the number of faults
// the model casts on one chip before collisions merge any: a compound
// sum of N defects with K faults each, so E = E[N]·E[K] and
// Var = E[N]·Var[K] + Var[N]·E[K]².
func (m Model) faultMoments() (mean, variance float64) {
	if m.D0A == 0 {
		return 0, 0
	}
	k := dist.ShiftedPoisson{N0: m.FaultsPerDefect}
	varN := dist.Poisson{Lambda: m.D0A}.Variance()
	if m.Count == ClusteredDefects {
		varN = dist.NegativeBinomial{R: m.Cluster, Mu: m.D0A}.Variance()
	}
	return m.D0A * k.Mean(), m.D0A*k.Variance() + varN*k.Mean()*k.Mean()
}

// lotSlab hands out the chips' fault lists from a few large chunks
// instead of one allocation per chip. Each list is carved with a
// three-index slice, so its capacity ends where the next chip's list
// begins: an append by a reader reallocates instead of overwriting a
// neighbour. A chunk is sized for the chips still to come at the
// per-chip mean plus four standard deviations of their total, so a lot
// almost always fits in one.
type lotSlab struct {
	buf      []int
	mean, sd float64 // per-chip fault count
}

// newLotSlab sizes chunks from the per-chip fault-count moments. A chip
// never carries more than the total faults in the universe, which
// bounds both moments.
func newLotSlab(mean, variance float64, total int) lotSlab {
	t := float64(total)
	return lotSlab{mean: math.Min(mean, t), sd: math.Min(math.Sqrt(variance), t)}
}

// carve returns a list of k ints for one chip (nil for k == 0);
// chipsLeft counts this chip and those after it.
func (s *lotSlab) carve(k, chipsLeft int) []int {
	if k == 0 {
		return nil
	}
	if len(s.buf) < k {
		n := float64(chipsLeft)
		size := int(math.Ceil(n*s.mean + 4*math.Sqrt(n)*s.sd))
		s.buf = make([]int, max(size, k))
	}
	out := s.buf[:k:k]
	s.buf = s.buf[k:]
	return out
}

// Chip is one manufactured die: the logical faults it carries (indices
// into the lot's fault list). A fault-free chip has an empty list.
type Chip struct {
	Faults []int
}

// Defective reports whether the chip carries any fault.
func (c Chip) Defective() bool { return len(c.Faults) > 0 }

// Lot is a set of manufactured chips over a shared fault universe.
type Lot struct {
	Chips    []Chip
	Universe []fault.Fault // the fault list chip indices refer to
	Yield    float64       // achieved (empirical) yield of the lot
}

// GenerateLot manufactures n chips: physical defects per the model,
// each cast into logical faults from the universe. This is the
// substitute for a real wafer lot on the paper's Sentry tester.
func GenerateLot(m Model, universe []fault.Fault, n int, rng *rand.Rand) (Lot, error) {
	if err := m.Validate(); err != nil {
		return Lot{}, err
	}
	if n <= 0 {
		return Lot{}, fmt.Errorf("defect: lot size must be positive, got %d", n)
	}
	if len(universe) == 0 {
		return Lot{}, fmt.Errorf("defect: empty fault universe")
	}
	lot := Lot{Chips: make([]Chip, n), Universe: universe}
	caster := newFaultCaster(len(universe))
	mean, variance := m.faultMoments()
	slab := newLotSlab(mean, variance, len(universe))
	good := 0
	for i := range lot.Chips {
		idxs := m.cast(&caster, rng, m.DefectCount(rng))
		faults := slab.carve(len(idxs), n-i)
		copy(faults, idxs)
		lot.Chips[i] = Chip{Faults: faults}
		if len(faults) == 0 {
			good++
		}
	}
	lot.Yield = float64(good) / float64(n)
	return lot, nil
}

// GenerateLotFromModel manufactures chips directly from the paper's
// statistical model (yield y, shifted-Poisson fault count with mean
// n0), bypassing the physical-defect layer. Used to validate that the
// estimation pipeline recovers known ground truth.
func GenerateLotFromModel(y, n0 float64, universe []fault.Fault, n int, rng *rand.Rand) (Lot, error) {
	fc, err := dist.NewChipFaultCount(y, n0)
	if err != nil {
		return Lot{}, err
	}
	if n <= 0 {
		return Lot{}, fmt.Errorf("defect: lot size must be positive, got %d", n)
	}
	if len(universe) == 0 {
		return Lot{}, fmt.Errorf("defect: empty fault universe")
	}
	if len(universe) > math.MaxInt32 {
		return Lot{}, fmt.Errorf("defect: fault universe of %d exceeds int32 indexing", len(universe))
	}
	total := len(universe)
	lot := Lot{Chips: make([]Chip, n), Universe: universe}
	perm := identityPerm(total)
	slab := newLotSlab(fc.Mean(), fc.Variance(), total)
	good := 0
	for i := range lot.Chips {
		k := fc.Sample(rng)
		if k > total {
			k = total
		}
		faults := slab.carve(k, n-i)
		sampleDistinct(rng, perm, faults)
		lot.Chips[i] = Chip{Faults: faults}
		if k == 0 {
			good++
		}
	}
	lot.Yield = float64(good) / float64(n)
	return lot, nil
}

// identityPerm returns the dense per-lot scratch of sampleDistinct: a
// virtual permutation of [0, total) with perm[x] == x.
func identityPerm(total int) []int32 {
	perm := make([]int32, total)
	for i := range perm {
		perm[i] = int32(i)
	}
	return perm
}

// sampleDistinct fills out with len(out) distinct draws from
// [0, len(perm)) by partial Fisher–Yates (Knuth, TAOCP vol. 2, §3.4.2)
// over perm: one rng.Intn(total-i) per draw i, swapping slot i with
// slot i+draw. It leaves perm the identity again, restoring only the
// slots it touched, so a chip costs O(k) however large the universe.
func sampleDistinct(rng *rand.Rand, perm []int32, out []int) {
	total := len(perm)
	for i := range out {
		j := i + rng.Intn(total-i)
		vi, vj := perm[i], perm[j]
		out[i] = int(vj)
		perm[j] = vi
		perm[i] = vj
	}
	// Besides the slots below k, only slots j >= k moved, and the first
	// swap at such a slot drew its own value j, so every one of them is
	// among out.
	for i, v := range out {
		perm[i] = int32(i)
		perm[v] = int32(v)
	}
}

// MeanFaultsOnDefective returns the lot's empirical n0: the average
// fault count over defective chips, or 0 for an all-good lot.
func (l Lot) MeanFaultsOnDefective() float64 {
	sum, nBad := 0, 0
	for _, c := range l.Chips {
		if c.Defective() {
			nBad++
			sum += len(c.Faults)
		}
	}
	if nBad == 0 {
		return 0
	}
	return float64(sum) / float64(nBad)
}
