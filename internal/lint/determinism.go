package lint

import (
	"go/ast"
	"go/types"
)

// determinismScopes are the result-producing packages: everything that
// feeds the byte-identity contracts (sweep CSV/JSON, campaign
// checkpoints and shard files, the dist/estimate numbers inside them,
// the sweepd wire output, and the Prepared-store artifact bytes that
// fault collapsing, ATPG, fault simulation and the flat core produce,
// and the manufactured lots and tester records the CSVs fold).
// Matched by import-path suffix so the fixture packages exercise the
// same scoping.
var determinismScopes = []string{
	"internal/sweep",
	"internal/campaign",
	"internal/circuits",
	"internal/dist",
	"internal/estimate",
	"internal/fault",
	"internal/atpg",
	"internal/faultsim",
	"internal/logicsim",
	"internal/defect",
	"internal/tester",
	"internal/experiment",
	"cmd/sweepd",
}

// globalRandAllowed are the math/rand (and v2) package-level functions
// that construct explicit generators rather than touching the shared
// process-wide source. Everything else at package level draws from
// global state seeded differently across runs — banned.
var globalRandAllowed = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true,
	"NewChaCha8": true,
}

var determinismAnalyzer = &Analyzer{
	Name: "determinism",
	Doc: "forbid wall-clock reads, the global math/rand source, and un-annotated " +
		"map iteration in the result-producing packages (sweep, campaign, circuits, " +
		"dist, estimate, fault, atpg, faultsim, logicsim, defect, tester, experiment, " +
		"sweepd): results must be byte-identical for any -workers, " +
		"across crash/resume, and across cold/warm Prepared stores",
	Run: runDeterminism,
}

func runDeterminism(p *Pass) []Finding {
	inScope := false
	for _, s := range determinismScopes {
		if p.pathHasSuffix(s) {
			inScope = true
			break
		}
	}
	if !inScope {
		return nil
	}
	var out []Finding
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				out = p.checkDeterministicCall(out, n)
			case *ast.RangeStmt:
				out = p.checkMapRange(out, n)
			}
			return true
		})
	}
	return out
}

func (p *Pass) checkDeterministicCall(out []Finding, call *ast.CallExpr) []Finding {
	fn := p.callee(call)
	if fn == nil || fn.Pkg() == nil {
		return out
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() != nil {
		return out // methods (e.g. on *rand.Rand) are explicit state: fine
	}
	switch fn.Pkg().Path() {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			out = p.finding(out, "determinism", call.Pos(),
				"time.%s reads the wall clock in a result-producing package; results must not depend on when they run", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if !globalRandAllowed[fn.Name()] {
			out = p.finding(out, "determinism", call.Pos(),
				"rand.%s draws from the process-global source; thread a seeded *rand.Rand (splitmix64 task seeding) instead", fn.Name())
		}
	}
	return out
}

func (p *Pass) checkMapRange(out []Finding, rs *ast.RangeStmt) []Finding {
	t := p.Info.TypeOf(rs.X)
	if t == nil {
		return out
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return out
	}
	if p.annotated("ordered", rs) {
		return out
	}
	return p.finding(out, "determinism", rs.Pos(),
		"range over map %s iterates in random order in a result-producing package; "+
			"sort keys first, or justify with a //repolint:ordered comment", types.TypeString(t, types.RelativeTo(p.Pkg)))
}
