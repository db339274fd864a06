package main

import "testing"

func TestSelectExperiments(t *testing.T) {
	all, err := selectExperiments("all")
	if err != nil || len(all) != len(experiments) {
		t.Fatalf("all: %d experiments, %v; want %d", len(all), err, len(experiments))
	}
	seen := map[string]bool{}
	for _, x := range all {
		if seen[x.id] || x.run == nil {
			t.Errorf("%s: duplicate id or no run", x.id)
		}
		seen[x.id] = true
	}

	got, err := selectExperiments("fig10, data,ext-cusum")
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, x := range got {
		ids = append(ids, x.id)
	}
	want := []string{"fig10", "tab1", "tab2", "fig2", "fig3", "fig4a", "fig4b", "fig14", "fig15", "fig16", "ext-cusum"}
	if len(ids) != len(want) {
		t.Fatalf("got %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("got %v, want %v", ids, want)
		}
	}

	if _, err := selectExperiments("fig8,fgi9"); err == nil {
		t.Error("fig8,fgi9: an unknown id was accepted")
	}
}
