package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// The compare mode judges a change against its parent from the saved
// output of both sides' runs (choosing-metrics §6.5 and §8):
//
//	for s in 1 2 3 ...; do python3 perfbench/run.py --workload W --seed $s >> old.txt; done
//	(same on the change into new.txt, alternating sides)
//	python3 perfbench/run.py compare old.txt new.txt
//
// For every workload and metric it prints each side's median and
// quartiles, the share of seed-matched pairs the change wins (ties count
// for neither side), and a verdict:
//
//   - failed: the change failed more operations than the parent, or a
//     run on either side failed its correctness checks; no gain counts;
//   - unresolved: a side's spread (quartile distance over median) exceeds
//     the metric's bound, and the change does not read better than the
//     parent in every run;
//   - worse: the change's median is worse than the parent's by more than
//     the bound;
//   - better: the change wins at least 9 in 10 pairs and the medians
//     differ by more than the parent's quartile distance;
//   - same: none of these.
//
// Per-layer metrics have no bound and get no verdict but "failed".
// Untraced and traced runs of a workload are compared apart.

// runResult is one run's parsed result.
type runResult struct {
	workload string
	seed     int64
	traced   int
	res      resultJSON
}

// parseResults reads benchmark output: each run's "workload" header line
// names the workload, seed and trace flag of the JSON result line that
// ends it.
func parseResults(r io.Reader) ([]runResult, error) {
	var out []runResult
	var cur runResult
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "workload ") {
			var secs int
			if _, err := fmt.Sscanf(line, "workload %s seed %d seconds %d trace %d",
				&cur.workload, &cur.seed, &secs, &cur.traced); err != nil {
				return nil, fmt.Errorf("header %q: %w", line, err)
			}
			continue
		}
		if strings.HasPrefix(line, "{") && cur.workload != "" {
			if err := json.Unmarshal([]byte(line), &cur.res); err != nil {
				return nil, fmt.Errorf("result of %s seed %d: %w", cur.workload, cur.seed, err)
			}
			out = append(out, cur)
			cur = runResult{}
		}
	}
	return out, sc.Err()
}

func readResults(path string) ([]runResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rs, err := parseResults(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rs, nil
}

// verdict is the compare mode's judgement of one metric on one workload.
type verdict struct {
	oldMed, oldQ1, oldQ3 float64
	newMed, newQ1, newQ3 float64
	wins, pairs          int
	call                 string
}

// judge compares the parent's values old with the change's values chg.
// Pairs are the seed-matched runs, in order.
func judge(d metricDef, old, chg []float64, pairs [][2]float64) verdict {
	v := verdict{oldMed: median(old), newMed: median(chg), pairs: len(pairs)}
	v.oldQ1, v.oldQ3 = quartiles(old)
	v.newQ1, v.newQ3 = quartiles(chg)
	better := func(a, b float64) bool { // a better than b
		if d.Better == "higher" {
			return a > b
		}
		return a < b
	}
	for _, p := range pairs {
		if better(p[1], p[0]) {
			v.wins++
		}
	}
	if d.Bound == 0 {
		return v
	}
	spread := func(q1, q3, m float64) float64 {
		if m == 0 {
			return 0
		}
		return (q3 - q1) / abs(m)
	}
	allBetter := len(old) > 0 && len(chg) > 0
	for _, n := range chg {
		for _, o := range old {
			allBetter = allBetter && better(n, o)
		}
	}
	worseBy := (v.oldMed - v.newMed) / abs(v.oldMed)
	if d.Better == "lower" {
		worseBy = -worseBy
	}
	switch {
	case (spread(v.oldQ1, v.oldQ3, v.oldMed) > d.Bound || spread(v.newQ1, v.newQ3, v.newMed) > d.Bound) && !allBetter:
		v.call = "unresolved"
	case worseBy > d.Bound:
		v.call = "worse"
	case v.pairs > 0 && float64(v.wins) >= 0.9*float64(v.pairs) &&
		abs(v.newMed-v.oldMed) > v.oldQ3-v.oldQ1 && better(v.newMed, v.oldMed):
		v.call = "better"
	default:
		v.call = "same"
	}
	return v
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare <parent-output> <change-output>")
		return 2
	}
	old, err := readResults(args[0])
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	chg, err := readResults(args[1])
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	writeComparison(stdout, old, chg)
	return 0
}

// group is the runs of one workload with one trace flag.
type group struct {
	workload string
	traced   int
}

// failures sums a side's failed operations and counts its runs that
// failed their correctness checks.
func failures(rs []runResult) (failed, incorrect int) {
	for _, r := range rs {
		failed += r.res.Failed
		if !r.res.Correct {
			incorrect++
		}
	}
	return failed, incorrect
}

// writeComparison prints one row per workload, trace flag and metric
// present on both sides.
func writeComparison(w io.Writer, old, chg []runResult) {
	defs := map[string]metricDef{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		defs[d.Name] = d
	}
	byGroup := func(rs []runResult) map[group][]runResult {
		m := map[group][]runResult{}
		for _, r := range rs {
			g := group{r.workload, r.traced}
			m[g] = append(m[g], r)
		}
		return m
	}
	og, ng := byGroup(old), byGroup(chg)
	var groups []group
	for g := range og {
		if _, ok := ng[g]; ok {
			groups = append(groups, g)
		}
	}
	sort.Slice(groups, func(i, j int) bool {
		if groups[i].workload != groups[j].workload {
			return groups[i].workload < groups[j].workload
		}
		return groups[i].traced < groups[j].traced
	})
	fmt.Fprintf(w, "%-16s %-5s %-26s %-36s %-36s %8s %7s  %s\n",
		"workload", "trace", "metric", "parent median [q1, q3]", "change median [q1, q3]", "change", "wins", "verdict")
	for _, g := range groups {
		olds, chgs := og[g], ng[g]
		oFailed, oBad := failures(olds)
		nFailed, nBad := failures(chgs)
		fmt.Fprintf(w, "%-16s %-5d operations failed: parent %d, change %d; runs failing their checks: parent %d, change %d\n",
			g.workload, g.traced, oFailed, nFailed, oBad, nBad)
		failed := nFailed > oFailed || oBad > 0 || nBad > 0
		var names []string
		for name := range olds[0].res.Metrics {
			if _, ok := chgs[0].res.Metrics[name]; ok {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			d, ok := defs[name]
			if !ok {
				d = metricDef{Name: name, Better: "lower"}
			}
			var ov, nv []float64
			for _, r := range olds {
				ov = append(ov, r.res.Metrics[name].Value)
			}
			for _, r := range chgs {
				nv = append(nv, r.res.Metrics[name].Value)
			}
			v := judge(d, ov, nv, seedPairs(olds, chgs, name))
			if failed {
				v.call = "failed"
			}
			change := "n/a"
			if v.oldMed != 0 {
				change = fmt.Sprintf("%+.1f%%", 100*(v.newMed-v.oldMed)/abs(v.oldMed))
			}
			fmt.Fprintf(w, "%-16s %-5d %-26s %-36s %-36s %8s %3d/%-3d  %s\n", g.workload, g.traced, name,
				fmt.Sprintf("%.6g [%.6g, %.6g]", v.oldMed, v.oldQ1, v.oldQ3),
				fmt.Sprintf("%.6g [%.6g, %.6g]", v.newMed, v.newQ1, v.newQ3),
				change, v.wins, v.pairs, v.call)
		}
	}
}

// seedPairs matches the two sides' runs of one workload by seed, in the
// order each side ran them.
func seedPairs(old, chg []runResult, metric string) [][2]float64 {
	queue := map[int64][]float64{}
	for _, r := range old {
		queue[r.seed] = append(queue[r.seed], r.res.Metrics[metric].Value)
	}
	var pairs [][2]float64
	for _, r := range chg {
		if q := queue[r.seed]; len(q) > 0 {
			pairs = append(pairs, [2]float64{q[0], r.res.Metrics[metric].Value})
			queue[r.seed] = q[1:]
		}
	}
	return pairs
}
