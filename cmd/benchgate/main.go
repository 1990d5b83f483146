// Command benchgate compares a freshly generated index-build benchmark
// report (BENCH_build.json format) against a committed baseline and fails on
// performance regressions. It is the CI gate behind the word-packed Fed-SAC
// rounds: the deterministic counters — mpc_rounds above all — must never
// creep back up unnoticed.
//
// Gates, per (dataset, mode) row — mode being the witness build or the
// customization sweep:
//
//   - mpc_rounds: hard gate. The counter is a deterministic function of the
//     build, independent of the runner, so the tolerance (default +10%)
//     exists only to absorb intentional small drifts; any regression beyond
//     it fails the run.
//   - time_ms (modeled end-to-end: wall + simulated network): reported, but
//     advisory by default (shared CI runners are too noisy for a hard time
//     gate). Set -wall-tolerance > 0 to enforce one.
//   - within the current report, a dataset's customize row must spend less
//     than 25% of its build row's MPC rounds, checked against the same run
//     rather than the baseline.
//
// The comparison table is printed to stdout and, when the
// GITHUB_STEP_SUMMARY environment variable is set, appended there as
// markdown so the gate's verdict shows up on the workflow summary page.
//
// Reports from other experiments — BENCH_large.json ("large") — are
// recognized by their experiment tag and skipped with a clean exit: they
// carry their own pass/fail criteria and must never trip the index-build
// perf gate.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/expr"
)

type rowKey struct {
	dataset   string
	customize bool
}

func (k rowKey) mode() string {
	if k.customize {
		return "customize"
	}
	return "build"
}

// errSkip marks a well-formed report of a different experiment (e.g. the
// large-graph tier's BENCH_large.json): not an error, just not gated here.
type errSkip struct{ experiment string }

func (e errSkip) Error() string { return fmt.Sprintf("experiment %q is not gated", e.experiment) }

func load(path string) (map[rowKey]expr.BuildBenchRow, []rowKey, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var rep expr.BuildBenchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	if rep.Experiment != "" && rep.Experiment != "index-build" {
		return nil, nil, errSkip{rep.Experiment}
	}
	rows := make(map[rowKey]expr.BuildBenchRow, len(rep.Rows))
	var order []rowKey
	for _, r := range rep.Rows {
		k := rowKey{r.Dataset, r.Customize}
		if _, dup := rows[k]; dup {
			return nil, nil, fmt.Errorf("%s: duplicate row %+v", path, k)
		}
		rows[k] = r
		order = append(order, k)
	}
	return rows, order, nil
}

func main() {
	var (
		basePath = flag.String("baseline", "BENCH_baseline.json", "committed baseline report")
		curPath  = flag.String("current", "BENCH_build.json", "freshly generated report")
		tol      = flag.Float64("tolerance", 0.10, "allowed fractional mpc_rounds growth over baseline")
		wallTol  = flag.Float64("wall-tolerance", 0, "allowed fractional wall-time growth (0 = advisory only)")
	)
	flag.Parse()

	base, order, err := load(*basePath)
	if err != nil {
		exitLoad(*basePath, err)
	}
	cur, curOrder, err := load(*curPath)
	if err != nil {
		exitLoad(*curPath, err)
	}

	var b strings.Builder
	b.WriteString("## benchgate: index-build perf vs baseline\n\n")
	fmt.Fprintf(&b, "baseline `%s` vs current `%s`, mpc_rounds tolerance +%.0f%%\n\n",
		*basePath, *curPath, *tol*100)
	b.WriteString("| dataset | mode | mpc_rounds (base → cur) | Δ | time ms (base → cur) | Δ | verdict |\n")
	b.WriteString("|---|---|---|---|---|---|---|\n")

	var failures []string
	for _, k := range order {
		br := base[k]
		cr, ok := cur[k]
		if !ok {
			failures = append(failures, fmt.Sprintf("row %s/%s missing from current report", k.dataset, k.mode()))
			fmt.Fprintf(&b, "| %s | %s | %d → (missing) | — | %.1f → — | — | ❌ missing |\n",
				k.dataset, k.mode(), br.MPCRounds, br.TimeMs)
			continue
		}
		roundsDelta := ratioDelta(float64(cr.MPCRounds), float64(br.MPCRounds))
		wallDelta := ratioDelta(cr.TimeMs, br.TimeMs)
		verdict := "✅"
		if float64(cr.MPCRounds) > float64(br.MPCRounds)*(1+*tol) {
			verdict = "❌ mpc_rounds regression"
			failures = append(failures, fmt.Sprintf("%s/%s: mpc_rounds %d → %d (%+.1f%%, tolerance +%.0f%%)",
				k.dataset, k.mode(), br.MPCRounds, cr.MPCRounds, roundsDelta, *tol*100))
		}
		if *wallTol > 0 && cr.TimeMs > br.TimeMs*(1+*wallTol) {
			verdict = "❌ wall regression"
			failures = append(failures, fmt.Sprintf("%s/%s: wall %.1fms → %.1fms (%+.1f%%, tolerance +%.0f%%)",
				k.dataset, k.mode(), br.TimeMs, cr.TimeMs, wallDelta, *wallTol*100))
		}
		fmt.Fprintf(&b, "| %s | %s | %d → %d | %+.1f%% | %.1f → %.1f | %+.1f%% | %s |\n",
			k.dataset, k.mode(), br.MPCRounds, cr.MPCRounds, roundsDelta,
			br.TimeMs, cr.TimeMs, wallDelta, verdict)
	}

	// Same-run customize invariant: refreshing the index per traffic version
	// must stay far cheaper than rebuilding it. Reports without customize rows
	// (older formats, partial runs) skip the check cleanly instead of failing.
	b.WriteString("\n### customize invariant (current run)\n\n")
	custLines, custFailures, custErr := customizeGate(cur, curOrder)
	var skip errSkip
	switch {
	case errors.As(custErr, &skip):
		fmt.Fprintf(&b, "- report lacks customize rows (%v) — invariant skipped\n", custErr)
	default:
		for _, l := range custLines {
			b.WriteString(l + "\n")
		}
		failures = append(failures, custFailures...)
	}

	if len(failures) == 0 {
		b.WriteString("\n**PASS** — no regressions.\n")
	} else {
		b.WriteString("\n**FAIL**\n\n")
		for _, f := range failures {
			fmt.Fprintf(&b, "- %s\n", f)
		}
	}

	fmt.Print(b.String())
	if path := os.Getenv("GITHUB_STEP_SUMMARY"); path != "" {
		if f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644); err == nil {
			f.WriteString(b.String())
			f.Close()
		}
	}
	if len(failures) > 0 {
		os.Exit(1)
	}
}

// customizeGate checks the same-run customize-rounds invariant: for every
// dataset carrying a customize row, the weight-customization sweep must spend
// LESS THAN 25% of the MPC rounds of that dataset's witness build
// (4×customize < build, exact integer arithmetic). It is judged within one
// report, so runner speed can neither mask nor fake it. A report with no
// customize rows at all returns errSkip: older report formats are not gated
// on data they do not carry.
func customizeGate(cur map[rowKey]expr.BuildBenchRow, order []rowKey) (lines, failures []string, err error) {
	found := false
	for _, k := range order {
		if !k.customize {
			continue
		}
		found = true
		cust := cur[k]
		build, ok := cur[rowKey{dataset: k.dataset}]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: customize row has no build row to compare against", k.dataset))
			lines = append(lines, fmt.Sprintf("- ❌ %s: missing the build row", k.dataset))
			continue
		}
		pct := 0.0
		if build.MPCRounds > 0 {
			pct = float64(cust.MPCRounds) / float64(build.MPCRounds) * 100
		}
		if 4*cust.MPCRounds < build.MPCRounds {
			lines = append(lines, fmt.Sprintf("- ✅ %s: customize %d rounds < 25%% of full build %d rounds (%.1f%%)",
				k.dataset, cust.MPCRounds, build.MPCRounds, pct))
		} else {
			failures = append(failures, fmt.Sprintf("%s: customize spends %d MPC rounds, full build %d — refresh cost is %.1f%% of a rebuild (must be < 25%%)",
				k.dataset, cust.MPCRounds, build.MPCRounds, pct))
			lines = append(lines, fmt.Sprintf("- ❌ %s: customize %d rounds ≥ 25%% of full build %d rounds (%.1f%%)",
				k.dataset, cust.MPCRounds, build.MPCRounds, pct))
		}
	}
	if !found {
		return nil, nil, errSkip{"index-build without customize rows"}
	}
	return lines, failures, nil
}

// exitLoad terminates on a load failure: an errSkip (a report from another
// experiment, e.g. BENCH_large.json) is a clean pass — the gate only judges
// index-build reports — while anything else is a hard error.
func exitLoad(path string, err error) {
	var skip errSkip
	if errors.As(err, &skip) {
		fmt.Printf("benchgate: %s: %v — ignored\n", path, err)
		os.Exit(0)
	}
	fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
	os.Exit(1)
}

func ratioDelta(cur, base float64) float64 {
	if base == 0 {
		return 0
	}
	return (cur/base - 1) * 100
}
