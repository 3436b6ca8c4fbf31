// protocol_compare renders the paper's three-panel behaviour figure for
// every workload, showing where each protocol wins: MP3D (migratory,
// both help), Cholesky (no migration — only LS helps), LU (false-sharing
// pseudo-migration) and OLTP (diverse sharing — LS's super-set coverage
// pays off).
package main

import (
	"flag"
	"fmt"
	"log"

	"lsnuma"
	"lsnuma/internal/report"
	"lsnuma/internal/workload"
)

func main() {
	scaleName := flag.String("scale", "test", "problem size: test, small, paper")
	flag.Parse()

	scale, err := workload.ParseScale(*scaleName)
	if err != nil {
		log.Fatal(err)
	}
	for _, w := range lsnuma.Workloads() {
		results, err := lsnuma.Compare(lsnuma.WorkloadConfig(w), w, scale)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(report.BehaviorFigure(w, results))
		fmt.Println()
	}
}
