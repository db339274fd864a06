package xatu

import (
	"bufio"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"github.com/xatu-go/xatu/internal/blocklist"
	"github.com/xatu-go/xatu/internal/ddos"
	"github.com/xatu-go/xatu/internal/routing"
	"github.com/xatu-go/xatu/internal/simnet"
)

// LoadMonitorConfig reads the model directory xatu-train writes into a
// MonitorConfig: one model per attack type (<type>.xatu) with shared.xatu
// as the default, the calibrated survival threshold (the threshold file,
// read only when threshold is 0; a non-zero threshold overrides it), and
// the registries behind the feature extractor (blocklists.txt, routes.txt,
// history.snap). A missing registry file leaves its signal empty, with a
// warning through logf; a malformed file is an error. logf also reports
// what was loaded.
func LoadMonitorConfig(dir string, threshold float64, logf func(format string, args ...any)) (MonitorConfig, error) {
	models, def, err := loadModels(dir)
	if err != nil {
		return MonitorConfig{}, err
	}
	if threshold == 0 {
		if threshold, err = loadThreshold(filepath.Join(dir, "threshold")); err != nil {
			return MonitorConfig{}, err
		}
	}
	ext, err := loadExtractor(dir, logf)
	if err != nil {
		return MonitorConfig{}, err
	}
	return MonitorConfig{Models: models, Default: def, Extractor: ext, Threshold: threshold}, nil
}

// loadModels reads the per-attack-type models and the shared default.
func loadModels(dir string) (map[AttackType]*Model, *Model, error) {
	load := func(name string) (*Model, error) {
		f, err := os.Open(filepath.Join(dir, name))
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil
		}
		if err != nil {
			return nil, err
		}
		defer f.Close()
		m, err := LoadModel(f)
		if err != nil {
			return nil, fmt.Errorf("loading %s: %w", name, err)
		}
		return m, nil
	}
	def, err := load("shared.xatu")
	if err != nil {
		return nil, nil, err
	}
	models := map[AttackType]*Model{}
	for at := ddos.AttackType(0); at < ddos.NumAttackTypes; at++ {
		m, err := load(at.String() + ".xatu")
		if err != nil {
			return nil, nil, err
		}
		if m != nil {
			models[at] = m
		}
	}
	if def == nil && len(models) == 0 {
		return nil, nil, fmt.Errorf("no models found in %s (run xatu-train first)", dir)
	}
	return models, def, nil
}

// loadThreshold reads the survival threshold file: one positive, finite
// value. A NaN would alert on every matching step (s >= NaN is false);
// values above 1 ("always alert") stay legal.
func loadThreshold(path string) (float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, fmt.Errorf("empty threshold file %s", path)
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(sc.Text()), 64)
	if err != nil {
		return 0, fmt.Errorf("threshold file %s: %w", path, err)
	}
	if !(v > 0) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("threshold file %s: %v is not a positive finite survival threshold", path, v)
	}
	return v, nil
}

// loadExtractor builds the feature extractor from the registry files.
func loadExtractor(dir string, logf func(format string, args ...any)) (*FeatureExtractor, error) {
	ext := &FeatureExtractor{
		Blocklists: NewBlocklistRegistry(),
		History:    NewHistoryRegistry(),
		Geo:        simnet.GeoOf,
		A4Window:   72 * time.Hour,
		A5Window:   24 * time.Hour,
	}
	table := &routing.Table{}
	for _, reg := range []struct {
		file, missing string
		load          func(*os.File) (string, error)
	}{
		{"blocklists.txt", "A1 features will be empty", func(f *os.File) (string, error) {
			n, err := blocklist.LoadText(f, ext.Blocklists)
			return fmt.Sprintf("%d blocklisted /24s", n), err
		}},
		{"routes.txt", "every source will look unrouted", func(f *os.File) (string, error) {
			t, err := routing.LoadText(f)
			if err != nil {
				return "", err
			}
			table = t
			return fmt.Sprintf("%d routes", t.Len()), nil
		}},
		{"history.snap", "A2/A4/A5 start cold", func(f *os.File) (string, error) {
			return "attack-history snapshot", ext.History.Load(f)
		}},
	} {
		f, err := os.Open(filepath.Join(dir, reg.file))
		if err != nil {
			logf("warning: no %s; %s", reg.file, reg.missing)
			continue
		}
		what, err := reg.load(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", reg.file, err)
		}
		logf("loaded %s", what)
	}
	ext.Spoof = NewSpoofChecker(table)
	return ext, nil
}
