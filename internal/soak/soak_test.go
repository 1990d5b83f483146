package soak

import (
	"testing"
	"time"
)

// A short soak of the serving pipeline: zero oracle violations, exact
// admission accounting with cache hits NOT admitted, and real shedding.
func TestSoakSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("soak takes a second of wall time")
	}
	rep, err := Run(Config{Vertices: 150, Duration: 600 * time.Millisecond, Workers: 6})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%+v", *rep)
	if rep.OracleViolations != 0 {
		t.Fatalf("%d of %d answers disagree with plaintext Dijkstra at their echoed version", rep.OracleViolations, rep.Queries)
	}
	if rep.Queries == 0 || rep.TrafficBatches == 0 {
		t.Fatalf("soak did nothing: %+v", rep)
	}
	if rep.OracleChecks != rep.Queries {
		t.Fatalf("checked %d of %d answers", rep.OracleChecks, rep.Queries)
	}
	if !rep.AccountingOK {
		t.Fatalf("admitted %d + shed %d != %d leader attempts, or the gate did not drain", rep.Admitted, rep.Shed, rep.LeaderAttempts)
	}
	if rep.Admitted >= rep.Queries {
		t.Fatalf("admitted %d of %d answers (%d hits, %d coalesced): cached answers must not take admission slots",
			rep.Admitted, rep.Queries, rep.CacheHits, rep.CacheCoalesced)
	}
	if rep.Shed == 0 {
		t.Fatal("nothing was shed: the overload path went unexercised")
	}
	if rep.CacheMisses != rep.LeaderAttempts {
		t.Fatalf("cache counted %d misses, the workers %d leader attempts", rep.CacheMisses, rep.LeaderAttempts)
	}
}
