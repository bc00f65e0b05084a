package bench

import (
	"strings"
	"testing"
	"time"
)

// table returns the rows of the table whose header line reads header (its
// cells joined by single spaces): the lines after it, up to the first
// blank line.  It fails the test unless the header is present and exactly
// want rows follow it.
func table(t *testing.T, lines [][]string, header string, want int) [][]string {
	t.Helper()
	for i, f := range lines {
		if strings.Join(f, " ") != header {
			continue
		}
		var rows [][]string
		for _, r := range lines[i+1:] {
			if len(r) == 0 {
				break
			}
			rows = append(rows, r)
		}
		if len(rows) != want {
			t.Fatalf("%q: %d rows, want %d", header, len(rows), want)
		}
		return rows
	}
	t.Fatalf("no table headed %q", header)
	return nil
}

// duration parses a table cell printed from a time.Duration.
func duration(t *testing.T, cell string) time.Duration {
	t.Helper()
	d, err := time.ParseDuration(cell)
	if err != nil {
		t.Fatalf("cell %q is not a duration", cell)
	}
	return d
}

// TestFig2aReport: the first strong-scaling point is its own baseline.
func TestFig2aReport(t *testing.T) {
	rows := table(t, runReport(t, Fig2a, Options{Reps: 1}),
		"cores nodes dhsort s [CI] hss s [CI] dhsort speedup efficiency", 5)
	if f := rows[0]; f[0] != "16" || f[6] != "1.0" || f[7] != "1.00" {
		t.Errorf("first point %v: want 16 cores at speedup 1.0, efficiency 1.00", f)
	}
}

// checkFractions fails t unless a phase-fraction row's five shares (its
// third to seventh cells) add up to 100%.
func checkFractions(t *testing.T, row []string) {
	t.Helper()
	sum := 0.0
	for _, c := range row[2:7] {
		sum += number(t, strings.TrimSuffix(c, "%"))
	}
	if sum < 99.5 || sum > 100.5 {
		t.Errorf("%v: phase shares add up to %.1f%%", row, sum)
	}
}

// TestFig2bReport: every row's phase shares cover the whole run.
func TestFig2bReport(t *testing.T) {
	rows := table(t, runReport(t, Fig2b, Options{Reps: 1}),
		"cores nodes LocalSort Histogram Exchange Merge Other iters", 5)
	for _, f := range rows {
		checkFractions(t, f)
	}
}

// TestFig3aReport: the one-node point is both sorters' weak-scaling baseline.
func TestFig3aReport(t *testing.T) {
	rows := table(t, runReport(t, Fig3a, Options{Reps: 1}),
		"nodes cores dhsort s [CI] weak eff hss s [CI] weak eff", 5)
	if f := rows[0]; f[0] != "1" || f[4] != "1.00" || f[7] != "1.00" {
		t.Errorf("first point %v: want 1 node at weak efficiency 1.00 for both", f)
	}
}

// TestFig3bReport: phase shares cover the run, and the exchanged volume
// grows with the rank count at a fixed volume per rank.
func TestFig3bReport(t *testing.T) {
	rows := table(t, runReport(t, Fig3b, Options{Reps: 1}),
		"nodes cores LocalSort Histogram Exchange Merge Other iters exchanged GiB", 5)
	prev := 0.0
	for _, f := range rows {
		checkFractions(t, f)
		if gib := number(t, f[8]); gib <= prev {
			t.Errorf("%v: %v GiB exchanged, not above %v", f, gib, prev)
		} else {
			prev = gib
		}
	}
}

// TestExchangeReport: under pure-MPI pricing the one-sided exchange falls
// behind the two-sided ALLTOALLV.
func TestExchangeReport(t *testing.T) {
	rows := table(t, runReport(t, ExchangeStudy, Options{Reps: 1}),
		"model cores nodes alltoallv fused rma-put", 4)
	for _, f := range rows {
		if f[0] == "mpi" && duration(t, f[5]) <= duration(t, f[3]) {
			t.Errorf("%v: rma-put not slower than alltoallv under mpi pricing", f)
		}
	}
}

// TestCollectivesReport: the pairwise alltoall grows with the rank count.
func TestCollectivesReport(t *testing.T) {
	rows := table(t, runReport(t, Collectives, Options{Reps: 1}),
		"ranks barrier bcast allreduce allgather alltoall", 3)
	var prev time.Duration
	for _, f := range rows {
		if d := duration(t, f[5]); d <= prev {
			t.Errorf("%v: alltoall %v, not above %v", f, d, prev)
		} else {
			prev = d
		}
	}
}

// TestSplittersReport: repeated selection loses to histogramming on every
// distribution.
func TestSplittersReport(t *testing.T) {
	rows := table(t, runReport(t, Splitters, Options{Reps: 1}),
		"distribution histogram s sampled (HSS) s selection s", 3)
	for _, f := range rows {
		if number(t, f[3]) <= number(t, f[1]) {
			t.Errorf("%v: selection not slower than histogramming", f)
		}
	}
}

// TestElasticReport: the grow row runs its second stream on p+step ranks,
// and the high static row is its own reference.
func TestElasticReport(t *testing.T) {
	rows := table(t, runReport(t, ElasticStudy, Options{Reps: 1}),
		"provisioning ranks makespan vs static-hi", 3)
	if f := rows[1]; f[2] != "12" || f[4] != "+0.0%" {
		t.Errorf("static-hi row %v: want 12 ranks at +0.0%%", f)
	}
	if f := rows[2]; f[0] != "grow" || f[1] != "8->12" || f[3] != "12" {
		t.Errorf("grow row %v: want 8->12 reading 12 ranks", f)
	}
}
