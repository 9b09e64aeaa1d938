// Package modelreg is the versioned on-disk model registry of the
// live model lifecycle: the paper trains its classifiers "periodically
// offline, for example once per day during idle periods" (§4.1), which
// implies serving instances must be able to pick up newer models than
// the one they booted with. Each saved version is a directory holding
// the serialized classifier (ml.SaveClassifier), the fitted schema
// encoder (SchemaEncoder.Save) and a manifest recording how the model
// was trained and how it scored on its holdout — the provenance an
// operator needs to audit (or roll back) a hot-swap.
//
// Layout under the registry directory:
//
//	<dir>/v0001/manifest.json    training + holdout metadata
//	<dir>/v0001/classifier.json  ml.SaveClassifier envelope
//	<dir>/v0001/encoder.json     fitted SchemaEncoder
//	<dir>/v0002/...
//
// Saves are atomic: a version is staged in a ".tmp-v*" directory and
// renamed into place, so a crash mid-save can never leave a partial
// version that LoadLatest would trust; the staging and registry
// directories are fsynced around the rename, so a version Save returned
// survives a crash. Stale staging directories left
// by such a crash are removed the next time the registry is opened.
package modelreg

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"sync"
	"time"

	"alarmverify/internal/fsync"
	"alarmverify/internal/ml"
)

// ErrNoVersions is returned when the registry holds no saved model.
var ErrNoVersions = errors.New("modelreg: no saved model versions")

// ErrNoSuchVersion is returned when a requested version is absent.
var ErrNoSuchVersion = errors.New("modelreg: no such model version")

// HoldoutMetrics records how a model version scored on the held-out
// alarms it was shadow-evaluated against before being admitted.
type HoldoutMetrics struct {
	Records   int     `json:"records"`
	Accuracy  float64 `json:"accuracy"`
	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`
	F1        float64 `json:"f1"`
}

// Manifest is one saved version's provenance: the algorithm, the
// shape of the train set (including how many operator verdicts were
// folded in), the feature schema the encoder expects, and the holdout
// metrics that justified admitting the version.
type Manifest struct {
	// Version is assigned by Save (monotonically increasing).
	Version int `json:"version"`
	// CreatedAt is stamped by Save (UTC).
	CreatedAt time.Time `json:"createdAt"`
	// Algorithm is the classifier kind ("rf", "svm", "lr", "dnn").
	Algorithm string `json:"algorithm"`
	// TrainRecords counts the rows the model was fitted on.
	TrainRecords int `json:"trainRecords"`
	// FeedbackRecords counts the operator verdicts that overrode the
	// Δt-heuristic labels in the train set.
	FeedbackRecords int `json:"feedbackRecords"`
	// Features is the one-hot design-matrix width.
	Features int `json:"features"`
	// DeltaTMS is the label-heuristic threshold in milliseconds.
	DeltaTMS int64 `json:"deltaTMs"`
	// NumExtras is the number of dataset-specific categorical extras
	// (for Sitasys: sensor type and software version).
	NumExtras int `json:"numExtras"`
	// HasRisk records whether the hybrid a-priori risk factor
	// participates as a feature (the model then needs a risk.Model
	// rebound at load time).
	HasRisk bool `json:"hasRisk"`
	// RiskKind is the risk.Kind the risk feature was computed with.
	RiskKind int `json:"riskKind"`
	// Holdout is how the version scored when it was admitted.
	Holdout HoldoutMetrics `json:"holdout"`
}

// Registry is a directory of saved model versions. All methods are
// safe for concurrent use within one process; concurrent processes
// are serialized only by the atomicity of the final rename.
type Registry struct {
	dir string
	mu  sync.Mutex
}

// versionDir matches a committed version directory name.
var versionDir = regexp.MustCompile(`^v(\d{4,})$`)

// stagingPrefix marks in-flight saves; Open removes leftovers.
const stagingPrefix = ".tmp-v"

// Open creates (or reopens) a registry rooted at dir and removes any
// stale staging directory a crashed save left behind.
func Open(dir string) (*Registry, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("modelreg: open: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("modelreg: open: %w", err)
	}
	for _, e := range entries {
		if len(e.Name()) > len(stagingPrefix) && e.Name()[:len(stagingPrefix)] == stagingPrefix {
			if err := os.RemoveAll(filepath.Join(dir, e.Name())); err != nil {
				return nil, fmt.Errorf("modelreg: open: remove stale staging %s: %w", e.Name(), err)
			}
		}
	}
	return &Registry{dir: dir}, nil
}

// versions lists committed version numbers in ascending order.
func (r *Registry) versions() ([]int, error) {
	entries, err := os.ReadDir(r.dir)
	if err != nil {
		return nil, fmt.Errorf("modelreg: %w", err)
	}
	var out []int
	for _, e := range entries {
		m := versionDir.FindStringSubmatch(e.Name())
		if m == nil || !e.IsDir() {
			continue
		}
		var v int
		fmt.Sscanf(m[1], "%d", &v)
		out = append(out, v)
	}
	sort.Ints(out)
	return out, nil
}

func (r *Registry) versionPath(version int) string {
	return filepath.Join(r.dir, fmt.Sprintf("v%04d", version))
}

// Save commits the fitted classifier and encoder as the next version.
// The manifest's Version and CreatedAt are assigned by Save; all other
// fields are the caller's. The returned manifest carries the assigned
// version.
func (r *Registry) Save(c ml.Classifier, enc *ml.SchemaEncoder, m Manifest) (Manifest, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	vs, err := r.versions()
	if err != nil {
		return Manifest{}, err
	}
	next := 1
	if len(vs) > 0 {
		next = vs[len(vs)-1] + 1
	}
	m.Version = next
	m.CreatedAt = time.Now().UTC()
	m.Algorithm = c.Name()

	staging := filepath.Join(r.dir, fmt.Sprintf("%s%04d", stagingPrefix, next))
	if err := os.RemoveAll(staging); err != nil {
		return Manifest{}, fmt.Errorf("modelreg: save: %w", err)
	}
	if err := os.MkdirAll(staging, 0o755); err != nil {
		return Manifest{}, fmt.Errorf("modelreg: save: %w", err)
	}
	ok := false
	defer func() {
		if !ok {
			os.RemoveAll(staging)
		}
	}()
	if err := writeFileWith(filepath.Join(staging, "classifier.json"), func(w io.Writer) error {
		return ml.SaveClassifier(w, c)
	}); err != nil {
		return Manifest{}, err
	}
	if err := writeFileWith(filepath.Join(staging, "encoder.json"), enc.Save); err != nil {
		return Manifest{}, err
	}
	if err := writeFileWith(filepath.Join(staging, "manifest.json"), func(w io.Writer) error {
		e := json.NewEncoder(w)
		e.SetIndent("", "  ")
		return e.Encode(m)
	}); err != nil {
		return Manifest{}, err
	}
	if err := syncDir(staging); err != nil {
		return Manifest{}, fmt.Errorf("modelreg: save: sync staging: %w", err)
	}
	if err := os.Rename(staging, r.versionPath(next)); err != nil {
		return Manifest{}, fmt.Errorf("modelreg: save: commit v%04d: %w", next, err)
	}
	ok = true
	if err := syncDir(r.dir); err != nil {
		return Manifest{}, fmt.Errorf("modelreg: save: sync v%04d: %w", next, err)
	}
	return m, nil
}

// syncDir makes a directory's entries durable: Save syncs the staging
// directory before the rename, so the version's files are in it, and
// the registry directory after, so the rename itself survives a crash
// and the next Save cannot reuse the version's number. Tests replace it
// to see both syncs.
var syncDir = fsync.Dir

// writeFileWith creates path and streams content through write,
// syncing before close so a committed version is durable.
//
//alarmvet:ignore registration is a cold path; r.mu intentionally serializes version dirs across the fsync
func writeFileWith(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("modelreg: save: %w", err)
	}
	if err := write(f); err != nil {
		_ = f.Close() // the write failure supersedes; the file is abandoned
		return fmt.Errorf("modelreg: save %s: %w", filepath.Base(path), err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close() // the fsync failure supersedes; the file is abandoned
		return fmt.Errorf("modelreg: save %s: %w", filepath.Base(path), err)
	}
	return f.Close()
}

// Load reads one committed version's classifier, encoder and manifest.
func (r *Registry) Load(version int) (ml.Classifier, *ml.SchemaEncoder, Manifest, error) {
	dir := r.versionPath(version)
	m, err := readManifest(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil, Manifest{}, fmt.Errorf("%w: v%04d", ErrNoSuchVersion, version)
		}
		return nil, nil, Manifest{}, err
	}
	cf, err := os.Open(filepath.Join(dir, "classifier.json"))
	if err != nil {
		return nil, nil, Manifest{}, fmt.Errorf("modelreg: load v%04d: %w", version, err)
	}
	defer cf.Close()
	c, err := ml.LoadClassifier(cf)
	if err != nil {
		return nil, nil, Manifest{}, fmt.Errorf("modelreg: load v%04d: %w", version, err)
	}
	ef, err := os.Open(filepath.Join(dir, "encoder.json"))
	if err != nil {
		return nil, nil, Manifest{}, fmt.Errorf("modelreg: load v%04d: %w", version, err)
	}
	defer ef.Close()
	enc, err := ml.LoadEncoder(ef)
	if err != nil {
		return nil, nil, Manifest{}, fmt.Errorf("modelreg: load v%04d: %w", version, err)
	}
	return c, enc, m, nil
}

// LoadLatest loads the highest committed version. It returns
// ErrNoVersions when the registry is empty.
func (r *Registry) LoadLatest() (ml.Classifier, *ml.SchemaEncoder, Manifest, error) {
	vs, err := r.versions()
	if err != nil {
		return nil, nil, Manifest{}, err
	}
	if len(vs) == 0 {
		return nil, nil, Manifest{}, ErrNoVersions
	}
	return r.Load(vs[len(vs)-1])
}

// Latest returns the manifest of the highest committed version, with
// ok=false when the registry is empty.
func (r *Registry) Latest() (Manifest, bool, error) {
	vs, err := r.versions()
	if err != nil || len(vs) == 0 {
		return Manifest{}, false, err
	}
	m, err := readManifest(r.versionPath(vs[len(vs)-1]))
	if err != nil {
		return Manifest{}, false, err
	}
	return m, true, nil
}

func readManifest(dir string) (Manifest, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return Manifest{}, err
	}
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return Manifest{}, fmt.Errorf("modelreg: %s: %w", dir, err)
	}
	return m, nil
}
