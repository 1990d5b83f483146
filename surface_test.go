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
// fields of Config, QueryOptions and IndexParams, Federation's methods,
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
		"Mode",              // benchmark/fixture.go: ModeProtocol; cmd/fedserver without -protocol: ideal
		"Seed",              // benchmark/fixture.go: worldSeed; cmd/fedserver -seed; internal/soak: its own
		"PreprocessPool",    // cmd/fedserver -prepool N; benchmark/fixture.go: none (the dealer is on the ledger)
		"PreprocessWorkers", // cmd/fedserver -prepool-workers; benchmark/fixture.go: none
		"RoundTimeout",      // benchmark/fixture.go: 5s (a hang becomes a counted failure); cmd/fedserver: 0 unless -round-timeout
		"SACRetries",        // cmd/fedserver, cmd/fedroad -sac-retries; benchmark/fixture.go: 0 (a retry would hide a failure)
		"SACRetryBackoff",   // cmd/fedserver, cmd/fedroad -sac-retry-backoff; benchmark/fixture.go: 0
		"TransportWrap",     // benchmark/trace.go: the tracer; cmd/fedserver: nil
		"MeshTCP",           // benchmark route_wire: true, knn_mem: false; cmd/fedserver -mesh-tcp
		"MeshTLS",           // benchmark route_wire: test certs; cmd/fedserver -tls-*: the operator's
	})
	check("QueryOptions fields", fieldNames(QueryOptions{}), []string{
		// No second value: internal/serve, cmd/fedroad and benchmark/fixture.go
		// all set it. It stays until a benchmark PR can stop compiling against
		// it (ROADMAP, re-baseline item).
		"BatchedMPC",
	})

	check("IndexParams fields", fieldNames(IndexParams{}), []string{
		"RebuildOnConflict", // cmd/fedserver -reindex-interval and ApplyTraffic's RebuildIndex: 2; BuildIndex: 0
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
		// Index derivation.
		"BuildIndex", "BuildIndexWith", "BuildSkeleton", "CustomizeIndex", "CustomizeIndexWith",
		"HasIndex", "HasSkeleton", "IndexBuilding", "IndexStats", "SkeletonStats", "CustomizeInfo",
		// Topology, resources and observability.
		"Graph", "Silos", "Close", "Metrics", "HasPool", "PoolStats", "MeshStats", "BreakMeshLink",
	})

	flags, params := fedserverSurface(t)
	check("fedserver flags", flags, []string{
		// Deployment settings: where to listen, what to serve, where to keep
		// state, which credentials.
		"addr", "dataset", "graph", "n", "silos", "seed", "persist",
		"tls-cert", "tls-key", "tls-ca",
		"no-index",         // the verify skill's flat instance; README's default builds the index
		"customize",        // README "contract once, re-customize": on; default witness build (ROADMAP item 1 decides)
		"reindex-interval", // README -customize deployment: 30s; default off
		"protocol",         // README mesh deployment, verify skill: on; default ideal mode
		"max-concurrent",   // verify skill overload drill: 2; default 4×GOMAXPROCS
		"max-queue",        // README durable deployment: 64; default unbounded
		"cache",            // default 4096; verify skill / soak-style runs: 0 to measure every query
		"pprof",            // operators' profiling sessions; default off (timing is a side channel)
		"prepool",          // verify skill: 2048; default off
		"prepool-workers",  // verify skill: 2; default 1
		"round-timeout",    // README mesh deployment; default wait forever
		"sac-retries",      // README mesh deployment; default 0
		"sac-retry-backoff",
		"mesh-tcp", // README mesh deployment: on; default in-process transport
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
