package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// output is one saved benchmark output: its host stamp and result line.
type output struct {
	host host
	res  result
}

func readOutput(path string) (output, error) {
	f, err := os.Open(path)
	if err != nil {
		return output{}, err
	}
	defer f.Close()
	var out output
	var hostLine, last string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if h, ok := strings.CutPrefix(line, "host: "); ok {
			hostLine = h
		}
		if line != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return output{}, err
	}
	if hostLine == "" {
		return output{}, fmt.Errorf("%s: no host line", path)
	}
	if err := strictDecode(hostLine, &out.host); err != nil {
		return output{}, fmt.Errorf("%s: host line: %w", path, err)
	}
	if err := strictDecode(last, &out.res); err != nil {
		return output{}, fmt.Errorf("%s: result line: %w", path, err)
	}
	return out, nil
}

func strictDecode(s string, v any) error {
	dec := json.NewDecoder(bytes.NewReader([]byte(s)))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// compareMain prints the change of every metric two saved outputs share.
// Host timings are compared only between outputs from the same host (same
// CPU count, GOMAXPROCS, CPU model and Go version); across hosts they are
// refused and the exit status is 1. Counts, bytes and scores always compare.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: fluxbench compare <old-output> <new-output>")
		return 2
	}
	old, err := readOutput(args[0])
	if err == nil {
		var cur output
		cur, err = readOutput(args[1])
		if err == nil {
			return compare(old, cur)
		}
	}
	fmt.Fprintf(os.Stderr, "fluxbench compare: %v\n", err)
	return 2
}

func compare(old, cur output) int {
	sameHost := old.host == cur.host
	if !sameHost {
		fmt.Printf("hosts differ: %+v vs %+v; host timings are not compared\n", old.host, cur.host)
	}
	names := make([]string, 0, len(cur.res.Metrics))
	//fluxvet:unordered collects keys that are sorted below
	for name := range cur.res.Metrics {
		if _, ok := old.res.Metrics[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	status := 0
	for _, name := range names {
		o, c := old.res.Metrics[name], cur.res.Metrics[name]
		if !sameHost && hostBound(name, c.Unit) {
			fmt.Printf("%-26s refused: measured on different hosts\n", name)
			status = 1
			continue
		}
		change := "n/a"
		if o.Value != 0 {
			change = fmt.Sprintf("%+.2f%%", 100*(c.Value-o.Value)/o.Value)
		}
		fmt.Printf("%-26s %14.6g -> %-14.6g %-6s %s\n", name, o.Value, c.Value, c.Unit, change)
	}
	return status
}
