package bench

import "testing"

func TestRunSSAExtensionSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("extension experiment is slow")
	}
	rows, err := RunSSAExtension([]int{6})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].R != 6 {
		t.Fatalf("rows = %+v", rows)
	}
	row := rows[0]
	// Heuristics can never beat their own representation's optimum.
	if row.LHDirect < row.OptDirect-1e-9 || row.BFPLSSA < row.OptSSA-1e-9 {
		t.Fatalf("heuristic beat optimal: %+v", row)
	}
	// SSA live-range splitting can only lower the achievable optimum.
	if row.OptSSA > row.OptDirect+1e-9 {
		t.Fatalf("SSA optimum above direct optimum: %+v", row)
	}
	if FormatSSAExtension(rows) == "" {
		t.Fatal("empty table")
	}
}
