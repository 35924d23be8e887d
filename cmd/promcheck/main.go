// Command promcheck validates a Prometheus text-format metrics page and
// asserts sample values — the CI smoke harness for simd's /metrics.
//
// The page is read from -url (an HTTP scrape) or stdin, strictly parsed
// (malformed exposition is a failure by itself), and then checked
// against assertion arguments of the form
//
//	promcheck -url http://127.0.0.1:8199/metrics \
//	  'engine_jobs_started_total>=1' \
//	  'http_requests_total{code="200",endpoint="POST /v1/scenarios"}>=1' \
//	  'sim_pdes_replays_total==0'
//
// A bare family name sums every labelled sample of that family
// (scenario_stage_seconds_count matches all six stages: trace, compile,
// replay, patterns, copyout and emit). Supported
// operators: ==, !=, >=, <=, >, <. With -list the parsed samples print
// instead, one `key value` per line — handy for discovering keys.
//
// Exit status: 0 when the page parses and every assertion holds, 1
// otherwise.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"

	"repro/internal/telemetry"
)

func main() {
	url := flag.String("url", "", "metrics URL to scrape (default: read the page from stdin)")
	list := flag.Bool("list", false, "print the parsed samples (key value per line) and exit")
	flag.Parse()

	var page = os.Stdin
	if *url != "" {
		resp, err := http.Get(*url)
		if err != nil {
			fatal("scrape %s: %v", *url, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			fatal("scrape %s: HTTP %d", *url, resp.StatusCode)
		}
		pm, err := telemetry.ParseMetrics(resp.Body)
		if err != nil {
			fatal("parse %s: %v", *url, err)
		}
		run(pm, *list)
		return
	}
	pm, err := telemetry.ParseMetrics(page)
	if err != nil {
		fatal("parse stdin: %v", err)
	}
	run(pm, *list)
}

func run(pm telemetry.ParsedMetrics, list bool) {
	if list {
		for _, k := range pm.Keys() {
			v, _ := pm.Value(k)
			fmt.Printf("%s %g\n", k, v)
		}
		return
	}
	failed := 0
	for _, a := range flag.Args() {
		if err := check(pm, a); err != nil {
			fmt.Fprintf(os.Stderr, "promcheck: FAIL %v\n", err)
			failed++
			continue
		}
		fmt.Printf("promcheck: ok %s\n", a)
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// ops in matching order: two-character operators before their
// one-character prefixes.
var ops = []string{">=", "<=", "==", "!=", ">", "<"}

func check(pm telemetry.ParsedMetrics, assertion string) error {
	for _, op := range ops {
		// Split at the last occurrence: label values may contain any
		// character, but the numeric right side never does.
		i := strings.LastIndex(assertion, op)
		if i < 0 {
			continue
		}
		key := strings.TrimSpace(assertion[:i])
		want, err := strconv.ParseFloat(strings.TrimSpace(assertion[i+len(op):]), 64)
		if err != nil {
			return fmt.Errorf("%s: bad number: %v", assertion, err)
		}
		got, found := pm.Value(key)
		if !found {
			return fmt.Errorf("%s: no sample %q on the page", assertion, key)
		}
		ok := false
		switch op {
		case ">=":
			ok = got >= want
		case "<=":
			ok = got <= want
		case "==":
			ok = got == want
		case "!=":
			ok = got != want
		case ">":
			ok = got > want
		case "<":
			ok = got < want
		}
		if !ok {
			return fmt.Errorf("%s: have %g", assertion, got)
		}
		return nil
	}
	return fmt.Errorf("%s: no operator (want one of %v)", assertion, ops)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "promcheck: "+format+"\n", args...)
	os.Exit(1)
}
