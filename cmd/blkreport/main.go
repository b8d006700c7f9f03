// Command blkreport checks a Chrome trace-event export (sweep -trace-out)
// against the shape the obs exporter writes: every record named, a known
// phase, a non-negative timestamp and numeric pid/tid routing. Traced
// runs carry the paper's btt view there: each completed block request is
// one "blkio" span with its op, request ID, queue time and Q2C latency.
//
// Usage:
//
//	blkreport -validate-chrome f.json # check a Chrome trace-event export
package main

import (
	"flag"
	"fmt"
	"os"

	"powerfail/internal/obs"
)

func main() {
	validateChrome := flag.String("validate-chrome", "", "validate a Chrome trace-event JSON file and exit")
	flag.Parse()
	if *validateChrome == "" || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}

	f, err := os.Open(*validateChrome)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	n, err := obs.ValidateChromeTrace(f)
	f.Close()
	if err != nil {
		fmt.Fprintf(os.Stderr, "blkreport: %s: %v\n", *validateChrome, err)
		os.Exit(1)
	}
	fmt.Printf("%s: valid Chrome trace, %d events\n", *validateChrome, n)
}
