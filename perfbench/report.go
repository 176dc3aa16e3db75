package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// report collects one run's outcome: operation counts, correctness
// breaches, metric values and the informational lines printed above the
// result.
type report struct {
	attempted, failed int
	breaches          []string
	metrics           map[string]float64
	info              []string
}

func newReport() *report { return &report{metrics: make(map[string]float64)} }

func (r *report) set(name string, v float64) { r.metrics[name] = v }

// breach records a correctness failure; the run then exits non-zero.
func (r *report) breach(format string, args ...any) {
	r.breaches = append(r.breaches, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

func (r *report) correct() bool { return len(r.breaches) == 0 && r.failed == 0 }

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// write prints the informational lines, one "metric" line per metric of
// defs, and last the one-line JSON result. Every metric in defs that the
// workload exercises must have been set; the others read 0.
func (r *report) write(w io.Writer, workload string, defs []metricDef) error {
	res := resultJSON{
		Correct:   r.correct(),
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricJSON, len(defs)),
	}
	var missing []string
	for _, d := range defs {
		v, ok := r.metrics[d.Name]
		if !ok && d.exercisedBy(workload) {
			missing = append(missing, d.Name)
		}
		res.Metrics[d.Name] = metricJSON{Value: v, Unit: d.Unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("perfbench: %s measured no value for %s", workload, strings.Join(missing, ", "))
	}
	for _, line := range r.info {
		fmt.Fprintln(w, line)
	}
	for _, b := range r.breaches {
		fmt.Fprintln(w, "BREACH:", b)
	}
	for _, d := range defs {
		fmt.Fprintf(w, "metric %-28s %14.6g %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	fmt.Fprintf(w, "attempted %d failed %d correct %v\n", res.Attempted, res.Failed, res.Correct)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
