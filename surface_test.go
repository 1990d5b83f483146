package fedroad

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestProductionSurface pins every knob of the production surface — the
// fields of Config and QueryOptions, Federation's methods,
// fedserver's flags and the query parameters its handlers read — to a literal
// list. An entry stays on a list
// because two callers that are not tests need different values for it (or
// because it is a deployment setting: an address, a path, a credential); the
// comment beside it names them. Adding a knob fails this test until it is
// listed here with its second caller; the paper's evaluation axes (queue,
// estimator, landmarks, index on/off, network model) are not production knobs
// and live in core.Options and expr.Config.
func TestProductionSurface(t *testing.T) {
	check := func(what string, got, want []string) {
		t.Helper()
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Errorf("%s:\n got  %v\n want %v", what, got, want)
		}
	}

	check("Config fields", fieldNames(Config{}), []string{
		"Mode",          // no second value: kept only because benchmark/fixture.go sets it (ModeProtocol, the default)
		"Seed",          // benchmark/fixture.go: worldSeed, a replayable transcript; cmd/fedserver: 0, masks drawn fresh
		"RoundTimeout",  // benchmark/fixture.go: 5s (a hang becomes a counted failure); cmd/fedserver: 0 unless -round-timeout
		"TransportWrap", // benchmark/trace.go: the tracer; cmd/fedserver: nil
		"MeshTCP",       // benchmark route_wire: true, knn_mem: false; cmd/fedserver -mesh-tcp
		"MeshTLS",       // benchmark route_wire: test certs; cmd/fedserver -tls-*: the operator's
	})
	check("QueryOptions fields", fieldNames(QueryOptions{}), []string{
		// No second value and no effect: every query batches. Kept only
		// because benchmark/fixture.go sets it.
		"BatchedMPC",
	})

	// A federation persists one way: a state snapshot. The skeleton is a
	// function of the graph, derived with no knob, never saved or loaded.
	fed := reflect.TypeOf(&Federation{})
	var methods, persist []string
	ioTypes := []reflect.Type{reflect.TypeFor[io.Reader](), reflect.TypeFor[io.Writer]()}
	for i := 0; i < fed.NumMethod(); i++ {
		m := fed.Method(i)
		methods = append(methods, m.Name)
		for j := 1; j < m.Type.NumIn(); j++ {
			if slices.Contains(ioTypes, m.Type.In(j)) {
				persist = append(persist, m.Name)
			}
		}
	}
	check("Federation persistence methods", persist, []string{"SaveState", "RestoreState"})
	if m, _ := fed.MethodByName("BuildSkeleton"); m.Type.NumIn() != 1 {
		t.Errorf("BuildSkeleton takes %d arguments, want none", m.Type.NumIn()-1)
	}
	check("Federation methods", methods, []string{
		// Queries and the serving tier.
		"ShortestPath", "NearestNeighbors", "Session", "NewQueryCache",
		// Traffic and state.
		"ApplyTraffic", "TrafficVersion", "SaveState", "RestoreState",
		// Index derivation. Writers take turns, so no entry point re-runs a
		// derivation that another writer invalidated.
		"BuildIndex", "BuildSkeleton", "CustomizeIndex",
		"HasIndex", "HasSkeleton", "IndexBuilding", "IndexStats", "SkeletonStats",
		// Topology, resources and observability.
		"Graph", "Silos", "Close", "Metrics", "MeshStats", "BreakMeshLink",
	})

	flags, params := fedserverSurface(t)
	check("fedserver flags", flags, []string{
		// Deployment settings: where to listen, what to serve, where to keep
		// state, which credentials.
		"addr", "dataset", "graph", "n", "silos", "seed", "persist",
		"tls-cert", "tls-key", "tls-ca",
		"no-index",         // the verify skill's flat instance; README's default builds the index
		"customize",        // default on: the customized index production derives; -customize=false: the witness build (the perfect-customization item decides its fate)
		"reindex-interval", // witness deployments' periodic rebuild (-customize=false); refused beside a customized index; default off
		"max-concurrent",   // verify skill overload drill: 2; default 4×GOMAXPROCS
		"max-queue",        // README durable deployment: 64; default unbounded
		"cache",            // default 4096; verify skill / soak-style runs: 0 to measure every query
		"pprof",            // operators' profiling sessions; default off (timing is a side channel)
		"round-timeout",    // README mesh deployment; default wait forever
		"mesh-tcp",         // README mesh deployment: on; default in-process transport
	})
	check("fedserver query parameters", params, []string{
		"s", "t", // /route, /knn: the request
		"k", // /knn: the request
	})
}

func fieldNames(v any) []string {
	t := reflect.TypeOf(v)
	names := make([]string, t.NumField())
	for i := range names {
		names[i] = t.Field(i).Name
	}
	return names
}

// fedserverSurface parses cmd/fedserver's non-test sources for the names it
// registers with package flag and the query parameters its handlers read:
// literal arguments of Get on a URL's Query() and of vertexParam, the one
// helper that reads a parameter by a name passed in.
func fedserverSurface(t *testing.T) (flags, params []string) {
	t.Helper()
	files, err := filepath.Glob("cmd/fedserver/*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("cmd/fedserver sources: %v, %v", files, err)
	}
	lit := func(e ast.Expr) (string, bool) {
		b, ok := e.(*ast.BasicLit)
		if !ok || b.Kind != token.STRING {
			return "", false
		}
		s, err := strconv.Unquote(b.Value)
		return s, err == nil
	}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			recv, _ := sel.X.(*ast.Ident)
			switch {
			case recv != nil && recv.Name == "flag":
				if name, ok := lit(call.Args[0]); ok {
					flags = append(flags, name)
				}
			case sel.Sel.Name == "vertexParam" && len(call.Args) == 2:
				if name, ok := lit(call.Args[1]); ok {
					params = append(params, name)
				}
			case sel.Sel.Name == "Get" || sel.Sel.Name == "Has" || sel.Sel.Name == "FormValue":
				if inner, ok := sel.X.(*ast.CallExpr); ok {
					if s, ok := inner.Fun.(*ast.SelectorExpr); !ok || s.Sel.Name != "Query" {
						return true // a header, not a query parameter
					}
				}
				if name, ok := lit(call.Args[0]); ok {
					params = append(params, name)
				}
			}
			return true
		})
	}
	// vertexParam is called once per endpoint with the same names.
	slices.Sort(params)
	return flags, slices.Compact(params)
}
