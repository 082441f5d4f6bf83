package chaos

import (
	"strings"
	"testing"
	"time"

	"wattdb/internal/table"
)

// TestChaosTPCCSeedsPass runs a short TPC-C chaos scenario for each
// repartitioning scheme and requires every warehouse invariant to hold.
func TestChaosTPCCSeedsPass(t *testing.T) {
	for _, scheme := range []table.Scheme{table.Physical, table.Logical, table.Physiological} {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			rep, err := RunTPCC(Config{Seed: 5, Scheme: scheme, Duration: 25 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			logReport(t, rep)
			if !rep.Passed() {
				t.Fatalf("invariant violations:\n%s", strings.Join(rep.Violations, "\n"))
			}
			if rep.Commits == 0 {
				t.Fatal("no transactions committed under chaos")
			}
			if rep.Crashes == 0 || rep.Restarts == 0 {
				t.Fatalf("plan injected no crash/restart (crashes=%d restarts=%d)", rep.Crashes, rep.Restarts)
			}
		})
	}
}
