package defect

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/netlist"
	"repro/internal/numeric"
)

func almostEq(a, b, tol float64) bool {
	diff := math.Abs(a - b)
	if diff <= tol {
		return true
	}
	return diff <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func TestModelValidate(t *testing.T) {
	good := Model{D0A: 2, FaultsPerDefect: 3, Locality: 0.5}
	if err := good.Validate(); err != nil {
		t.Errorf("valid model rejected: %v", err)
	}
	bad := []Model{
		{D0A: -1, FaultsPerDefect: 2},
		{D0A: 1, FaultsPerDefect: 0.5},
		{D0A: 1, FaultsPerDefect: 2, Locality: 1.5},
		{D0A: 1, FaultsPerDefect: 2, Count: ClusteredDefects, Cluster: 0},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("bad model %d accepted", i)
		}
	}
}

func TestCountModelString(t *testing.T) {
	if PoissonDefects.String() != "poisson" || ClusteredDefects.String() != "clustered" {
		t.Error("count model names")
	}
	if CountModel(7).String() != "CountModel(7)" {
		t.Error("unknown count model name")
	}
}

func TestTheoreticalYield(t *testing.T) {
	// Poisson: y = e^{-D0A}.
	m := Model{D0A: 2.659, FaultsPerDefect: 2}
	if !almostEq(m.TheoreticalYield(), math.Exp(-2.659), 1e-12) {
		t.Errorf("poisson yield = %v", m.TheoreticalYield())
	}
	// Clustered: y = (1 + D0A/r)^{-r} (negative binomial zero mass).
	mc := Model{D0A: 2, Count: ClusteredDefects, Cluster: 2, FaultsPerDefect: 2}
	want := math.Pow(1+1.0, -2.0)
	if !almostEq(mc.TheoreticalYield(), want, 1e-9) {
		t.Errorf("clustered yield = %v, want %v", mc.TheoreticalYield(), want)
	}
}

func TestDefectCountMatchesYield(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := Model{D0A: 2.659, FaultsPerDefect: 2} // e^-2.659 ≈ 0.07
	const n = 100000
	zero := 0
	for i := 0; i < n; i++ {
		if m.DefectCount(rng) == 0 {
			zero++
		}
	}
	if got := float64(zero) / n; !almostEq(got, m.TheoreticalYield(), 0.05) {
		t.Errorf("empirical yield %v vs theoretical %v", got, m.TheoreticalYield())
	}
}

func TestCastFaultsDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := Model{D0A: 1, FaultsPerDefect: 4, Locality: 0.8, Window: 10}
	for trial := 0; trial < 200; trial++ {
		idxs := m.CastFaults(rng, 100, 3)
		seen := make(map[int]bool)
		for _, i := range idxs {
			if i < 0 || i >= 100 {
				t.Fatalf("index %d out of range", i)
			}
			if seen[i] {
				t.Fatal("duplicate fault index")
			}
			seen[i] = true
		}
	}
}

func TestCastFaultsEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := Model{D0A: 1, FaultsPerDefect: 2}
	if got := m.CastFaults(rng, 0, 3); got != nil {
		t.Error("empty universe should give nil")
	}
	if got := m.CastFaults(rng, 10, 0); got != nil {
		t.Error("zero defects should give nil")
	}
	// Saturation: more faults than the universe holds.
	sat := Model{D0A: 1, FaultsPerDefect: 50}
	idxs := sat.CastFaults(rng, 5, 10)
	if len(idxs) > 5 {
		t.Errorf("cast %d faults into universe of 5", len(idxs))
	}
}

func TestExpectedN0(t *testing.T) {
	// Poisson defects, mean d; E[defects | >=1] = d/(1-e^-d). With
	// FaultsPerDefect = 3 the expected n0 is 3 d/(1-e^-d).
	m := Model{D0A: 2, FaultsPerDefect: 3}
	want := 3 * 2 / (1 - math.Exp(-2))
	if !almostEq(m.ExpectedN0(), want, 1e-9) {
		t.Errorf("ExpectedN0 = %v, want %v", m.ExpectedN0(), want)
	}
}

func universeFor(t *testing.T) []fault.Fault {
	t.Helper()
	c, err := netlist.ArrayMultiplier(4)
	if err != nil {
		t.Fatal(err)
	}
	return fault.Reps(fault.CollapseEquivalence(c, fault.AllFaults(c)))
}

func TestGenerateLotYield(t *testing.T) {
	universe := universeFor(t)
	rng := rand.New(rand.NewSource(9))
	m := Model{D0A: 2.659, FaultsPerDefect: 3.3, Locality: 0.7}
	lot, err := GenerateLot(m, universe, 20000, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(lot.Yield, m.TheoreticalYield(), 0.08) {
		t.Errorf("lot yield %v vs theoretical %v", lot.Yield, m.TheoreticalYield())
	}
	// Empirical n0 should be near the model's expectation.
	if got := lot.MeanFaultsOnDefective(); !almostEq(got, m.ExpectedN0(), 0.1) {
		t.Errorf("lot n0 %v vs expected %v", got, m.ExpectedN0())
	}
}

func TestGenerateLotErrors(t *testing.T) {
	universe := universeFor(t)
	rng := rand.New(rand.NewSource(1))
	m := Model{D0A: 1, FaultsPerDefect: 2}
	if _, err := GenerateLot(m, universe, 0, rng); err == nil {
		t.Error("zero chips should error")
	}
	if _, err := GenerateLot(m, nil, 10, rng); err == nil {
		t.Error("empty universe should error")
	}
	if _, err := GenerateLot(Model{D0A: -1, FaultsPerDefect: 2}, universe, 10, rng); err == nil {
		t.Error("invalid model should error")
	}
}

func TestGenerateLotFromModel(t *testing.T) {
	universe := universeFor(t)
	rng := rand.New(rand.NewSource(6))
	lot, err := GenerateLotFromModel(0.07, 8.8, universe, 30000, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(lot.Yield, 0.07, 0.08) {
		t.Errorf("lot yield %v", lot.Yield)
	}
	if got := lot.MeanFaultsOnDefective(); !almostEq(got, 8.8, 0.03) {
		t.Errorf("lot n0 %v, want 8.8", got)
	}
	// All fault indices valid and distinct per chip.
	for _, chip := range lot.Chips[:100] {
		seen := make(map[int]bool)
		for _, fi := range chip.Faults {
			if fi < 0 || fi >= len(universe) {
				t.Fatal("fault index out of range")
			}
			if seen[fi] {
				t.Fatal("duplicate fault on chip")
			}
			seen[fi] = true
		}
	}
}

func TestGenerateLotFromModelErrors(t *testing.T) {
	universe := universeFor(t)
	rng := rand.New(rand.NewSource(1))
	if _, err := GenerateLotFromModel(2, 8, universe, 10, rng); err == nil {
		t.Error("invalid yield should error")
	}
	if _, err := GenerateLotFromModel(0.5, 8, universe, 0, rng); err == nil {
		t.Error("zero chips should error")
	}
	if _, err := GenerateLotFromModel(0.5, 8, nil, 10, rng); err == nil {
		t.Error("empty universe should error")
	}
}

// sampleDistinctRef is the map-based partial Fisher–Yates the dense
// sampleDistinct replaced, kept as its oracle: it draws k distinct
// integers from [0, total) with the virtual index map held in a hash
// map.
func sampleDistinctRef(rng *rand.Rand, total, k int) []int {
	if k <= 0 {
		return nil
	}
	swapped := make(map[int]int)
	out := make([]int, k)
	for i := 0; i < k; i++ {
		j := i + rng.Intn(total-i)
		vi, ok := swapped[i]
		if !ok {
			vi = i
		}
		vj, ok := swapped[j]
		if !ok {
			vj = j
		}
		out[i] = vj
		swapped[j] = vi
		swapped[i] = vj
	}
	return out
}

// castFaultsRef is the map-based CastFaults the epoch-marked caster
// replaced, kept as its oracle.
func castFaultsRef(m Model, rng *rand.Rand, total, ndefects int) []int {
	if total <= 0 || ndefects <= 0 {
		return nil
	}
	window := m.Window
	if window <= 0 {
		window = total / 20
		if window < 4 {
			window = 4
		}
	}
	fpd := dist.ShiftedPoisson{N0: m.FaultsPerDefect}
	chosen := make(map[int]bool)
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
			for chosen[idx] {
				idx = (idx + 1) % total
				if len(chosen) >= total {
					break
				}
			}
			if len(chosen) < total {
				chosen[idx] = true
			}
		}
	}
	out := make([]int, 0, len(chosen))
	for idx := range chosen {
		out = append(out, idx)
	}
	sort.Ints(out)
	return out
}

func assertIdentity(t *testing.T, perm []int32, what string) {
	t.Helper()
	for x, v := range perm {
		if int(v) != x {
			t.Fatalf("%s: scratch slot %d holds %d, not the identity", what, x, v)
		}
	}
}

// TestSampleDistinct pins the dense sampler to the map oracle: the same
// distinct in-range draws in the same order, the RNG left in the same
// state, and the scratch back to the identity after every chip.
func TestSampleDistinct(t *testing.T) {
	for _, total := range []int{1, 2, 7, 64, 1000} {
		perm := identityPerm(total)
		rngRef := rand.New(rand.NewSource(int64(total)))
		rngNew := rand.New(rand.NewSource(int64(total)))
		// Several chips through one scratch, so a chip that leaves it
		// dirty corrupts the next one.
		for _, k := range []int{0, 1, total / 2, total, total / 2, 1, total} {
			want := sampleDistinctRef(rngRef, total, k)
			got := make([]int, k)
			sampleDistinct(rngNew, perm, got)
			if !slices.Equal(got, want) {
				t.Fatalf("total %d k %d: dense %v, map %v", total, k, got, want)
			}
			seen := make(map[int]bool)
			for _, v := range got {
				if v < 0 || v >= total || seen[v] {
					t.Fatalf("total %d k %d: bad sample %v", total, k, got)
				}
				seen[v] = true
			}
			if a, b := rngRef.Int63(), rngNew.Int63(); a != b {
				t.Fatalf("total %d k %d: RNG state diverged (%d vs %d)", total, k, a, b)
			}
			assertIdentity(t, perm, fmt.Sprintf("total %d k %d", total, k))
		}
	}
}

// TestGenerateLotFromModelMatchesReference checks the whole model lot,
// chip by chip, against the map sampler run in the same draw order.
func TestGenerateLotFromModelMatchesReference(t *testing.T) {
	universe := make([]fault.Fault, 40)
	for _, n0 := range []float64{1, 8.8, 60} { // 60 saturates the 40-fault universe
		lot, err := GenerateLotFromModel(0.2, n0, universe, 300, rand.New(rand.NewSource(5)))
		if err != nil {
			t.Fatal(err)
		}
		fc, err := dist.NewChipFaultCount(0.2, n0)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		for i, chip := range lot.Chips {
			k := min(fc.Sample(rng), len(universe))
			if want := sampleDistinctRef(rng, len(universe), k); !slices.Equal(chip.Faults, want) {
				t.Fatalf("n0 %v chip %d: got %v, want %v", n0, i, chip.Faults, want)
			}
		}
	}
}

// TestGenerateLotMatchesReference checks the physical lot, chip by
// chip, against the map caster: Poisson and clustered counts, with and
// without locality, and a universe small enough to saturate.
func TestGenerateLotMatchesReference(t *testing.T) {
	models := []Model{
		{D0A: 2.659, FaultsPerDefect: 3.3, Locality: 0.7},
		{D0A: 2, Count: ClusteredDefects, Cluster: 0.5, FaultsPerDefect: 2},
		{D0A: 1.5, FaultsPerDefect: 12, Locality: 1, Window: 3},
		{D0A: 4, FaultsPerDefect: 9},
	}
	for _, total := range []int{5, 40, 500} {
		universe := make([]fault.Fault, total)
		for mi, m := range models {
			lot, err := GenerateLot(m, universe, 400, rand.New(rand.NewSource(int64(mi))))
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(mi)))
			for i, chip := range lot.Chips {
				want := castFaultsRef(m, rng, total, m.DefectCount(rng))
				if !slices.Equal(chip.Faults, want) || (chip.Faults == nil) != (want == nil) {
					t.Fatalf("total %d model %d chip %d: got %v, want %v", total, mi, i, chip.Faults, want)
				}
			}
		}
	}
}

// TestLotFaultListsAreIsolated: the chips' lists share one slab, so an
// append to one chip's list must reallocate, never overwrite the next
// chip's faults.
func TestLotFaultListsAreIsolated(t *testing.T) {
	universe := make([]fault.Fault, 100)
	lot, err := GenerateLotFromModel(0.1, 5, universe, 50, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	before := make([][]int, len(lot.Chips))
	for i, c := range lot.Chips {
		before[i] = slices.Clone(c.Faults)
	}
	for i := range lot.Chips {
		_ = append(lot.Chips[i].Faults, -1)
	}
	for i, c := range lot.Chips {
		if !slices.Equal(c.Faults, before[i]) {
			t.Fatalf("chip %d changed after appending to its neighbour: %v, was %v", i, c.Faults, before[i])
		}
	}
}

// TestGenerateLotFromModelAllocs: a lot costs a constant number of
// allocations — the chip array, the sampler's scratch, and one slab
// chunk — however many chips it holds.
func TestGenerateLotFromModelAllocs(t *testing.T) {
	universe := make([]fault.Fault, 1000)
	rng := rand.New(rand.NewSource(1))
	allocs := func(chips int, seed int64) float64 {
		return testing.AllocsPerRun(5, func() {
			rng.Seed(seed)
			if _, err := GenerateLotFromModel(0.2, 8.8, universe, chips, rng); err != nil {
				t.Fatal(err)
			}
		})
	}
	for seed := int64(1); seed <= 4; seed++ {
		small, large := allocs(500, seed), allocs(2000, seed)
		if large != small || large > 3 {
			t.Errorf("seed %d: %v allocations for 500 chips, %v for 2000; want the same constant <= 3", seed, small, large)
		}
	}
}

func TestMeanFaultsOnDefectiveEmpty(t *testing.T) {
	lot := Lot{Chips: []Chip{{}, {}}}
	if lot.MeanFaultsOnDefective() != 0 {
		t.Error("all-good lot should report 0")
	}
}

func TestClusteredLotOverdispersion(t *testing.T) {
	// Clustered defects raise the variance of per-chip defect counts
	// relative to Poisson at the same mean, hence a higher yield for
	// the same D0A (Stapper's point behind Eq. 3).
	universe := universeFor(t)
	rngA := rand.New(rand.NewSource(10))
	rngB := rand.New(rand.NewSource(10))
	poisson := Model{D0A: 2, FaultsPerDefect: 2}
	clustered := Model{D0A: 2, Count: ClusteredDefects, Cluster: 0.5, FaultsPerDefect: 2}
	lotP, err := GenerateLot(poisson, universe, 20000, rngA)
	if err != nil {
		t.Fatal(err)
	}
	lotC, err := GenerateLot(clustered, universe, 20000, rngB)
	if err != nil {
		t.Fatal(err)
	}
	if lotC.Yield <= lotP.Yield {
		t.Errorf("clustered yield %v should exceed poisson %v at same D0A", lotC.Yield, lotP.Yield)
	}
}

func BenchmarkGenerateLotFromModel(b *testing.B) {
	universe := make([]fault.Fault, 1000)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GenerateLotFromModel(0.2, 8.8, universe, 2000, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGenerateLot(b *testing.B) {
	c, err := netlist.ArrayMultiplier(4)
	if err != nil {
		b.Fatal(err)
	}
	universe := fault.Reps(fault.CollapseEquivalence(c, fault.AllFaults(c)))
	m := Model{D0A: 2.659, FaultsPerDefect: 3.3, Locality: 0.7}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GenerateLot(m, universe, 277, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCastFaultsDeterministic: the same seed must produce the same
// fault list byte-for-byte, including order: the list comes back
// sorted, not in draw order. Without that, every physical-lot
// experiment would depend on how the caster collects its choices.
func TestCastFaultsDeterministic(t *testing.T) {
	m := Model{D0A: 2, FaultsPerDefect: 3, Locality: 0.6, Window: 8}
	rng1 := rand.New(rand.NewSource(42))
	rng2 := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		a := m.CastFaults(rng1, 500, 4)
		b := m.CastFaults(rng2, 500, 4)
		if len(a) != len(b) {
			t.Fatalf("trial %d: lengths differ: %d vs %d", trial, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d: order diverged at %d: %v vs %v", trial, i, a, b)
			}
		}
		if !sort.IntsAreSorted(a) {
			t.Fatalf("trial %d: result not sorted: %v", trial, a)
		}
	}
}
