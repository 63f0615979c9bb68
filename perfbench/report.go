package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// reportMain runs every workload several times in fresh processes
// (unless -from names saved results) and prints every metric with its
// unit, median, quartiles, sample count and spread.
func reportMain(args []string) int {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	runs := fs.Int("runs", 10, "runs per workload, seeds 1..runs")
	seconds := fs.Int("seconds", 40, "measurement budget per run (BENCHMARK.json run_seconds)")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer suite")
	only := fs.String("workloads", "", "comma-separated workloads (default all)")
	out := fs.String("out", filepath.Join(stateDir(), "results", "latest"), "directory the runs' outputs are saved to")
	from := fs.String("from", "", "print saved results from this directory instead of running")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	dir := *from
	if dir == "" {
		dir = *out
		names := workloadNames()
		if *only != "" {
			names = strings.Split(*only, ",")
		}
		if err := runMany(dir, names, *runs, *seconds, *trace); err != nil {
			fmt.Fprintf(os.Stderr, "report: %v\n", err)
			return 1
		}
	}
	set, err := loadResults(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "report: %v\n", err)
		return 1
	}
	printReport(os.Stdout, set, loadBounds())
	return 0
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.Name)
	}
	return out
}

// runMany runs each workload runs times, each in a fresh process with
// its own seed, and saves each run's output.
func runMany(dir string, names []string, runs, seconds, trace int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, w := range names {
		for s := 1; s <= runs; s++ {
			var buf bytes.Buffer
			cmd := exec.Command(exe, "--workload", w, "--seed", strconv.Itoa(s),
				"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
			cmd.Stdout = &buf
			cmd.Stderr = os.Stderr
			runErr := cmd.Run()
			name := fmt.Sprintf("%s-seed%d-trace%d.jsonl", w, s, trace)
			if err := os.WriteFile(filepath.Join(dir, name), buf.Bytes(), 0o644); err != nil {
				return err
			}
			if runErr != nil {
				fmt.Fprintf(os.Stderr, "report: %s seed %d: %v\n", w, s, runErr)
			}
		}
	}
	return nil
}

// resultSet groups saved results by workload and trace mode.
type resultSet map[string][]*result

func setKey(workload string, trace bool) string {
	if trace {
		return workload + " (traced)"
	}
	return workload
}

// loadResults reads every *.jsonl in dir and keeps the full-result
// lines.
func loadResults(dir string) (resultSet, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no *.jsonl results in %s", dir)
	}
	set := resultSet{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		rs, err := parseResults(bytes.NewReader(b))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		for _, r := range rs {
			k := setKey(r.Workload, r.Trace)
			set[k] = append(set[k], r)
		}
	}
	for _, rs := range set {
		sort.Slice(rs, func(i, j int) bool { return rs[i].Seed < rs[j].Seed })
	}
	return set, nil
}

// parseResults extracts the {"perfbench": ...} lines of a run's output.
func parseResults(r io.Reader) ([]*result, error) {
	var out []*result
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if !bytes.HasPrefix(line, []byte(`{"perfbench":`)) {
			continue
		}
		var wrap struct {
			R *result `json:"perfbench"`
		}
		if err := json.Unmarshal(line, &wrap); err != nil {
			return nil, err
		}
		out = append(out, wrap.R)
	}
	return out, sc.Err()
}

// loadBounds reads the end-to-end bounds of the checkout's
// BENCHMARK.json; an unreadable file means no bounds.
func loadBounds() map[string]float64 {
	out := map[string]float64{}
	b, err := os.ReadFile(filepath.Join(repoRoot(), "BENCHMARK.json"))
	if err != nil {
		return out
	}
	var bj struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if json.Unmarshal(b, &bj) == nil {
		for _, m := range bj.EndToEnd {
			out[m.Name] = m.Bound
		}
	}
	return out
}

// values collects one metric across results.
func values(rs []*result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// metricNames lists, in order, the declared metrics of the mode and
// then every other metric the results carry.
func metricNames(rs []*result) []string {
	defs := endToEnd
	if len(rs) > 0 && rs[0].Trace {
		defs = perLayer
	}
	seen := map[string]bool{}
	var out []string
	for _, d := range defs {
		seen[d.Name] = true
		out = append(out, d.Name)
	}
	var extra []string
	for _, r := range rs {
		for name := range r.Metrics {
			if !seen[name] {
				seen[name] = true
				extra = append(extra, name)
			}
		}
	}
	sort.Strings(extra)
	return append(out, extra...)
}

func unitOf(rs []*result, name string) string {
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			return m.Unit
		}
	}
	return ""
}

// lowerIsBetter reports a metric's direction: the declared one, else
// rates are better higher and everything else lower.
func lowerIsBetter(name, unit string) bool {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				return d.Better == "lower"
			}
		}
	}
	return unit != "1/s"
}

func printReport(w io.Writer, set resultSet, bounds map[string]float64) {
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tn\tmedian\tq1\tq3\tspread\tbound\tnote")
	for _, k := range keys {
		rs := set[k]
		failed := 0
		for _, r := range rs {
			if r.Failed > 0 {
				failed++
			}
		}
		for _, name := range metricNames(rs) {
			xs := values(rs, name)
			if len(xs) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t\t0\t\t\t\t\t\tmissing\n", k, name)
				continue
			}
			q1, q2, q3 := quartiles(xs)
			sp := spread(xs)
			bound, note := "", ""
			if b, ok := bounds[name]; ok {
				bound = fmt.Sprintf("%.2f", b)
				switch {
				case sp > b:
					note = "spread over bound"
				case sp > b/3:
					note = "spread over a third of bound"
				}
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%.6g\t%.6g\t%.6g\t%.4f\t%s\t%s\n", k, name, unitOf(rs, name), len(xs), q2, q1, q3, sp, bound, note)
		}
		fmt.Fprintf(tw, "%s\truns with failed checks\tcount\t%d\t%d\t\t\t\t\t\n", k, len(rs), failed)
	}
	tw.Flush()
}

// compareMain compares a parent and a change result set by the
// benchmark's rules (choosing-metrics section 8).
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	parent := fs.String("parent", "", "directory of the parent commit's results")
	change := fs.String("change", "", "directory of the change's results")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *parent == "" || *change == "" {
		fmt.Fprintln(os.Stderr, "compare: -parent and -change are required")
		return 2
	}
	ps, err := loadResults(*parent)
	if err != nil {
		fmt.Fprintf(os.Stderr, "compare: %v\n", err)
		return 1
	}
	cs, err := loadResults(*change)
	if err != nil {
		fmt.Fprintf(os.Stderr, "compare: %v\n", err)
		return 1
	}
	rows := compareSets(ps, cs, loadBounds())
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tpairs\twins\tparent median\tparent IQR\tchange median\tdelta\tverdict")
	worse := false
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%d\t%.6g\t%.6g\t%.6g\t%+.2f%%\t%s\n",
			r.workload, r.metric, r.unit, r.pairs, r.wins, r.parentMed, r.parentIQR, r.changeMed, 100*r.delta, r.verdict)
		worse = worse || r.verdict == "worse"
	}
	tw.Flush()
	if worse {
		return 1
	}
	return 0
}

// comparison is one workload × metric verdict.
type comparison struct {
	workload, metric, unit string
	pairs, wins            int
	parentMed, parentIQR   float64
	changeMed, delta       float64
	verdict                string
}

// minPairs is the fewest seed pairs a "better" verdict may rest on
// (choosing-metrics section 8: at least ten pairs).
const minPairs = 10

// compareSets pairs runs by seed and judges each metric:
//   - "better": at least minPairs pairs, the change wins at least 9/10
//     of them (ties count for neither) and the medians differ by more
//     than the parent's IQR;
//   - "worse": the change's median is worse than the parent's by more
//     than the metric's bound;
//   - "unresolved": the parent's own spread exceeds the bound, unless
//     every change run beats every parent run, or, short of "worse",
//     there are fewer than minPairs pairs;
//   - "unchanged" (bounded metrics) or "no claim" otherwise.
func compareSets(ps, cs resultSet, bounds map[string]float64) []comparison {
	var out []comparison
	keys := make([]string, 0, len(ps))
	for k := range ps {
		if _, ok := cs[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		pr, cr := ps[k], cs[k]
		for _, name := range metricNames(pr) {
			unit := unitOf(pr, name)
			lower := lowerIsBetter(name, unit)
			pv, cv := values(pr, name), values(cr, name)
			if len(pv) == 0 || len(cv) == 0 {
				continue
			}
			c := comparison{workload: k, metric: name, unit: unit}
			bySeed := map[int64]float64{}
			for _, r := range cr {
				if m, ok := r.Metrics[name]; ok {
					bySeed[r.Seed] = m.Value
				}
			}
			for _, r := range pr {
				m, ok := r.Metrics[name]
				cvs, ok2 := bySeed[r.Seed]
				if !ok || !ok2 {
					continue
				}
				c.pairs++
				if (lower && cvs < m.Value) || (!lower && cvs > m.Value) {
					c.wins++
				}
			}
			q1, pm, q3 := quartiles(pv)
			c.parentMed, c.parentIQR, c.changeMed = pm, q3-q1, median(cv)
			c.delta = (c.changeMed - pm) / math.Abs(pm)
			improved := (lower && c.changeMed < pm) || (!lower && c.changeMed > pm)
			worseBy := c.delta
			if !lower {
				worseBy = -c.delta
			}
			bound, bounded := bounds[name]
			switch {
			case c.pairs >= minPairs && float64(c.wins) >= 0.9*float64(c.pairs) && improved && math.Abs(c.changeMed-pm) > c.parentIQR:
				c.verdict = "better"
			case bounded && spread(pv) > bound && !separated(pv, cv, lower):
				c.verdict = "unresolved"
			case bounded && worseBy > bound:
				c.verdict = "worse"
			case bounded && c.pairs < minPairs:
				c.verdict = "unresolved"
			case bounded:
				c.verdict = "unchanged"
			default:
				c.verdict = "no claim"
			}
			out = append(out, c)
		}
	}
	return out
}

// separated reports whether every change value beats every parent
// value.
func separated(pv, cv []float64, lower bool) bool {
	p, c := sorted(pv), sorted(cv)
	if lower {
		return c[len(c)-1] < p[0]
	}
	return c[0] > p[len(p)-1]
}
