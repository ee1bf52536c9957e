package hgstore_test

// Cross-process write-race coverage: the bugfix this file pins replaced
// the fixed <path>.tmp + blind-overwrite flush with unique tmp names, an
// advisory file lock around the read-merge-write cycle, and
// merge-on-flush union semantics. Two real processes (this test binary
// re-executed with a marker environment variable) hammer one store path
// concurrently; every entry either process wrote must be present and
// decodable afterwards — zero lost entries, zero decode errors.

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/hgstore"
	"repro/internal/image"
)

// The child environment: path of the shared store, the child's key-space
// base (keeps the two writers' keys disjoint), and how many entries to
// put. stressChild hijacks the process in TestMain when stressEnv is set.
const (
	stressEnv      = "REPRO_HGSTORE_STRESS"
	stressPathEnv  = "REPRO_HGSTORE_STRESS_PATH"
	stressBaseEnv  = "REPRO_HGSTORE_STRESS_BASE"
	stressCountEnv = "REPRO_HGSTORE_STRESS_COUNT"
)

func TestMain(m *testing.M) {
	stressChild()
	os.Exit(m.Run())
}

// stressEntry lifts the first corpus scenario and packages it as a store
// entry; the synthetic stress keys reuse its config fingerprint and
// address, so lookups decode against the scenario image.
func stressEntry() (*hgstore.Entry, hgstore.Key, *image.Image, error) {
	scenarios, err := corpus.AllScenarios()
	if err != nil {
		return nil, hgstore.Key{}, nil, err
	}
	s := scenarios[0]
	l := core.New(s.Image, core.DefaultConfig())
	fr := l.LiftFuncCtx(context.Background(), s.FuncAddr, s.Name)
	fr.Duration = time.Millisecond
	e := &hgstore.Entry{
		Status:     fr.Status,
		Graph:      fr.Stats(),
		Sem:        l.Counters(),
		Wall:       time.Millisecond,
		Duration:   fr.Duration,
		Funcs:      []*core.FuncResult{fr},
		EntryIndex: -1,
	}
	return e, hgstore.TaskKey(s.Image, s.FuncAddr, false, nil), s.Image, nil
}

// stressChild runs one writer process when the stress environment is set,
// never returning in that case: open the shared store, lift one scenario,
// and put it under count synthetic keys offset from base. Every Put goes
// through the full locked read-merge-write cycle, exactly like a
// concurrent hglift -store run next to a daemon.
func stressChild() {
	if os.Getenv(stressEnv) != "1" {
		return
	}
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "stress child:", err)
		os.Exit(1)
	}
	base, err := strconv.ParseUint(os.Getenv(stressBaseEnv), 10, 64)
	if err != nil {
		fail(err)
	}
	count, err := strconv.Atoi(os.Getenv(stressCountEnv))
	if err != nil {
		fail(err)
	}
	st, err := hgstore.Open(os.Getenv(stressPathEnv))
	if err != nil {
		fail(err)
	}
	e, key, img, err := stressEntry()
	if err != nil {
		fail(err)
	}
	for i := 0; i < count; i++ {
		k := key
		k.Code = base + uint64(i)
		if _, err := st.Put(k, e, img); err != nil {
			fail(fmt.Errorf("put %d: %w", i, err))
		}
	}
	os.Exit(0)
}

// TestStoreTwoProcessStress is the acceptance test of the flush-race
// bugfix: two real OS processes interleave dozens of read-merge-write
// cycles on one store path, and the surviving container must hold every
// entry both of them wrote, each still decodable. Before the fix the two
// writers shared one <path>.tmp and overwrote instead of merging, so one
// process's entries were silently dropped.
func TestStoreTwoProcessStress(t *testing.T) {
	const perChild = 24
	path := filepath.Join(t.TempDir(), "shared.hgcs")
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	bases := []uint64{1 << 32, 2 << 32}
	var wg sync.WaitGroup
	errs := make([]error, len(bases))
	outs := make([]string, len(bases))
	for i, base := range bases {
		wg.Add(1)
		go func(i int, base uint64) {
			defer wg.Done()
			cmd := exec.Command(exe)
			cmd.Env = append(os.Environ(),
				stressEnv+"=1",
				stressPathEnv+"="+path,
				stressBaseEnv+"="+strconv.FormatUint(base, 10),
				stressCountEnv+"="+strconv.Itoa(perChild),
			)
			out, err := cmd.CombinedOutput()
			errs[i], outs[i] = err, string(out)
		}(i, base)
	}
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("child %d failed: %v\n%s", i, errs[i], outs[i])
		}
	}

	st, err := hgstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Dropped() != 0 {
		t.Fatalf("reopened store dropped %d records", st.Dropped())
	}
	if got, want := st.Len(), len(bases)*perChild; got != want {
		t.Fatalf("lost entries: store holds %d, want %d", got, want)
	}
	_, key, img, err := stressEntry()
	if err != nil {
		t.Fatal(err)
	}
	for _, base := range bases {
		for i := 0; i < perChild; i++ {
			k := key
			k.Code = base + uint64(i)
			if e, _, _, reason := st.Lookup(k, img); e == nil {
				t.Fatalf("entry %#x lost or undecodable: %s", k.Code, reason)
			}
		}
	}
	// No writer may leave a temp file behind once its flushes are done.
	assertNoStrayTmps(t, path)
}

// TestStoreTwoHandleConcurrentFlush runs the same race in-process: two
// independent *Store handles on one path (each with its own mutex, so
// only the file lock and merge semantics serialise them) put concurrently
// from several goroutines. Run under -race in CI.
func TestStoreTwoHandleConcurrentFlush(t *testing.T) {
	const perHandle = 16
	path := filepath.Join(t.TempDir(), "shared.hgcs")
	var wg sync.WaitGroup
	for h := 0; h < 2; h++ {
		st, err := hgstore.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		// Sealing mutates the entry, so each handle puts its own (see
		// Store.Put); only the key space is shared.
		e, key, img, err := stressEntry()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(h int, st *hgstore.Store) {
			defer wg.Done()
			for i := 0; i < perHandle; i++ {
				k := key
				k.Code = uint64(h)<<32 + uint64(i)
				if _, err := st.Put(k, e, img); err != nil {
					t.Errorf("handle %d put %d: %v", h, i, err)
				}
			}
		}(h, st)
	}
	wg.Wait()
	st, err := hgstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := st.Len(), 2*perHandle; got != want {
		t.Fatalf("lost entries: store holds %d, want %d", got, want)
	}
	assertNoStrayTmps(t, path)
}

// TestStoreSweepsStaleTmps pins the crash-recovery sweep: tmp files
// stranded between CreateTemp and Rename — and the fixed-name tmp older
// writers used — are removed by the next Open.
func TestStoreSweepsStaleTmps(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.hgcs")
	for _, stray := range []string{path + ".tmp", path + ".tmp-12345"} {
		if err := os.WriteFile(stray, []byte("stranded"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// An unrelated neighbour must survive the sweep.
	neighbour := filepath.Join(filepath.Dir(path), "other.hgcs.tmp-1")
	if err := os.WriteFile(neighbour, []byte("keep"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := hgstore.Open(path); err != nil {
		t.Fatal(err)
	}
	assertNoStrayTmps(t, path)
	if _, err := os.Stat(neighbour); err != nil {
		t.Fatalf("sweep removed an unrelated file: %v", err)
	}
}

// TestStoreRenameFailureRemovesTmp forces the rename itself to fail (the
// destination becomes a directory) and checks the flush cleans up its own
// tmp file instead of stranding it.
func TestStoreRenameFailureRemovesTmp(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.hgcs")
	st, err := hgstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	e, key, img, err := stressEntry()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Put(key, e, img); err != nil {
		t.Fatal(err)
	}
	// Replace the container with a directory: the next flush's rename
	// must fail and must not leave its tmp file behind.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	k2 := key
	k2.Code++
	if _, err := st.Put(k2, e, img); err == nil {
		t.Fatal("flush over a directory succeeded, want error")
	}
	assertNoStrayTmps(t, path)
}

// TestStoreBufferedFlush pins the daemon's write mode: with auto-flush
// off, Puts stay in memory until Flush persists them all in one cycle,
// and a clean Flush with nothing new is a no-op.
func TestStoreBufferedFlush(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.hgcs")
	st, err := hgstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	st.SetAutoFlush(false)
	e, key, img, err := stressEntry()
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	for i := 0; i < n; i++ {
		k := key
		k.Code = uint64(i)
		if _, err := st.Put(k, e, img); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("buffered put reached disk early: %v", err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	reopened, err := hgstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Len() != n {
		t.Fatalf("flushed store holds %d entries, want %d", reopened.Len(), n)
	}
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil { // nothing dirty: must not rewrite
		t.Fatal(err)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !after.ModTime().Equal(before.ModTime()) || after.Size() != before.Size() {
		t.Fatal("clean Flush rewrote the container")
	}
}

// assertNoStrayTmps fails if any temp file survives next to the store.
func assertNoStrayTmps(t *testing.T, path string) {
	t.Helper()
	ents, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	base := filepath.Base(path)
	for _, ent := range ents {
		if strings.HasPrefix(ent.Name(), base+".tmp") {
			t.Fatalf("stray temp file left behind: %s", ent.Name())
		}
	}
}
