package modelreg

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"alarmverify/internal/fsync"
	"alarmverify/internal/ml"
)

// fitSmall fits a tiny RF + encoder on a synthetic two-feature
// problem and returns them with a few probe rows.
func fitSmall(t *testing.T, seed int) (ml.Classifier, *ml.SchemaEncoder, [][]float64) {
	t.Helper()
	cols := []ml.ColumnSpec{{Name: "cat"}, {Name: "x", Numeric: true}}
	enc := ml.NewSchemaEncoder(cols)
	var rows []ml.Row
	var labels []int
	cats := []string{"a", "b", "c"}
	for i := 0; i < 240; i++ {
		c := cats[(i+seed)%len(cats)]
		x := float64((i*7+seed*13)%100) / 100
		label := 0
		if c == "a" || x > 0.6 {
			label = 1
		}
		rows = append(rows, ml.Row{Cats: []string{c}, Nums: []float64{x}})
		labels = append(labels, label)
	}
	if err := enc.Fit(rows); err != nil {
		t.Fatal(err)
	}
	ds, err := enc.TransformAll(rows, labels)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ml.DefaultRandomForestConfig()
	cfg.NumTrees = 8
	cfg.MaxDepth = 6
	rf := ml.NewRandomForest(cfg)
	if err := rf.Fit(ds); err != nil {
		t.Fatal(err)
	}
	return rf, enc, ds.X[:16]
}

func TestRegistrySaveLoadRoundTrip(t *testing.T) {
	reg, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := reg.LoadLatest(); err != ErrNoVersions {
		t.Fatalf("empty registry LoadLatest err = %v, want ErrNoVersions", err)
	}
	if _, ok, err := reg.Latest(); ok || err != nil {
		t.Fatalf("empty registry Latest = ok=%v err=%v", ok, err)
	}

	model, enc, probes := fitSmall(t, 1)
	m, err := reg.Save(model, enc, Manifest{
		TrainRecords: 240, Features: 5, DeltaTMS: 60_000, NumExtras: 0,
		Holdout: HoldoutMetrics{Records: 50, Accuracy: 0.9},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Version != 1 || m.Algorithm != "rf" || m.CreatedAt.IsZero() {
		t.Fatalf("manifest = %+v", m)
	}

	loaded, loadedEnc, lm, err := reg.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if lm.Version != 1 || lm.TrainRecords != 240 || lm.Holdout.Accuracy != 0.9 {
		t.Fatalf("loaded manifest = %+v", lm)
	}
	if loadedEnc.Width() != enc.Width() {
		t.Fatalf("encoder width %d, want %d", loadedEnc.Width(), enc.Width())
	}
	for _, x := range probes {
		a, b := model.Proba(x), loaded.Proba(x)
		if math.Float64bits(a[1]) != math.Float64bits(b[1]) {
			t.Fatalf("loaded model diverges: %v vs %v", a, b)
		}
	}
}

func TestRegistryVersionsAccumulate(t *testing.T) {
	reg, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		model, enc, _ := fitSmall(t, i)
		m, err := reg.Save(model, enc, Manifest{TrainRecords: 100 * i})
		if err != nil {
			t.Fatal(err)
		}
		if m.Version != i {
			t.Fatalf("save %d assigned version %d", i, m.Version)
		}
	}
	list := manifests(t, reg)
	if len(list) != 3 {
		t.Fatalf("%d manifests", len(list))
	}
	for i, m := range list {
		if m.Version != i+1 || m.TrainRecords != 100*(i+1) {
			t.Fatalf("manifest %d = %+v", i, m)
		}
	}
	if _, _, m, err := reg.Load(2); err != nil || m.TrainRecords != 200 {
		t.Fatalf("Load(2) = %+v, %v", m, err)
	}
	if _, _, _, err := reg.Load(9); err == nil {
		t.Fatal("Load of missing version succeeded")
	}
}

// TestRegistryCleansStaleStaging simulates a crash between staging
// and commit: a leftover .tmp-v directory must be removed on Open and
// never surface as a version.
func TestRegistryCleansStaleStaging(t *testing.T) {
	dir := t.TempDir()
	reg, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	model, enc, _ := fitSmall(t, 2)
	if _, err := reg.Save(model, enc, Manifest{}); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(dir, stagingPrefix+"0002")
	if err := os.MkdirAll(stale, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(stale, "classifier.json"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	reg2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale staging dir survived reopen: %v", err)
	}
	list := manifests(t, reg2)
	if len(list) != 1 || list[0].Version != 1 {
		t.Fatalf("registry after cleanup lists %+v", list)
	}
	// The next save must still get version 2.
	if m, err := reg2.Save(model, enc, Manifest{}); err != nil || m.Version != 2 {
		t.Fatalf("post-cleanup save = %+v, %v", m, err)
	}
}

// manifests reads every committed version's manifest, oldest first.
func manifests(t *testing.T, r *Registry) []Manifest {
	t.Helper()
	vs, err := r.versions()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]Manifest, 0, len(vs))
	for _, v := range vs {
		m, err := readManifest(r.versionPath(v))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, m)
	}
	return out
}

// TestSaveSyncsStagingAndRegistryDirs: Save fsyncs the staging
// directory before the rename and the registry directory after it —
// without either, a crash can lose a version Save returned.
func TestSaveSyncsStagingAndRegistryDirs(t *testing.T) {
	dir := t.TempDir()
	reg, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var synced []string
	syncDir = func(d string) error {
		_, err := os.Stat(filepath.Join(d, "manifest.json"))
		synced = append(synced, fmt.Sprintf("%s manifest=%v", d, err == nil))
		return nil
	}
	defer func() { syncDir = fsync.Dir }()
	model, enc, _ := fitSmall(t, 1)
	if _, err := reg.Save(model, enc, Manifest{}); err != nil {
		t.Fatal(err)
	}
	want := []string{
		filepath.Join(dir, stagingPrefix+"0001") + " manifest=true",
		dir + " manifest=false",
	}
	if !reflect.DeepEqual(synced, want) {
		t.Fatalf("synced %q, want %q", synced, want)
	}
	if _, err := os.Stat(filepath.Join(dir, "v0001", "manifest.json")); err != nil {
		t.Fatalf("version not committed: %v", err)
	}
}
