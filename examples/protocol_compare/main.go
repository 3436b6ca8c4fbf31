// protocol_compare renders the paper's three-panel behaviour figure for
// every workload, showing where each protocol wins: MP3D (migratory,
// both help), Cholesky (no migration — only LS helps), LU (false-sharing
// pseudo-migration) and OLTP (diverse sharing — LS's super-set coverage
// pays off).
package main

import (
	"flag"
	"fmt"
	"os"

	"lsnuma"
	"lsnuma/internal/cli"
	"lsnuma/internal/report"
)

func main() {
	flags := cli.New(flag.CommandLine, "protocol_compare", []string{"scale"})
	flags.Parse(os.Args[1:])

	for _, w := range lsnuma.Workloads() {
		results, err := lsnuma.Compare(lsnuma.WorkloadConfig(w), w, flags.Scale)
		if err != nil {
			flags.Fatal(err)
		}
		fmt.Println(report.BehaviorFigure(w, results))
		fmt.Println()
	}
}
