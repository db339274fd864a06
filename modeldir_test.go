package xatu

import (
	"os"
	"path/filepath"
	"testing"
)

// TestLoadThreshold pins that the threshold file must hold one positive,
// finite survival threshold. A NaN would otherwise alert on every matching
// step (s >= NaN is false); values above 1 ("always alert") stay legal.
func TestLoadThreshold(t *testing.T) {
	dir := t.TempDir()
	for content, ok := range map[string]bool{
		"0.1827549603834926\n": true,
		"1.5":                  true,
		"NaN\n":                false,
		"+Inf\n":               false,
		"-0.2\n":               false,
		"0\n":                  false,
		"0.2x\n":               false,
		"":                     false,
	} {
		path := filepath.Join(dir, "threshold")
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		v, err := loadThreshold(path)
		if ok && (err != nil || v <= 0) {
			t.Errorf("%q: got %v, %v; want it loaded", content, v, err)
		}
		if !ok && err == nil {
			t.Errorf("%q: loaded %v, want an error", content, v)
		}
	}
}
