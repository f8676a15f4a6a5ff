//go:build mutants

package mutants

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// checkTimeout bounds one run of a mutant's check: a mutant that hangs
// its check is reported, not waited out.
const checkTimeout = 5 * time.Minute

// TestMutantsAreKilled applies every committed mutant and requires its
// check to fail with the expected text, on every run or seed it names.
// Run it with `make mutants` (go test -tags mutants ./mutants/).
func TestMutantsAreKilled(t *testing.T) {
	specs, err := loadSpecs(".", moduleRoot)
	if err != nil {
		t.Fatal(err)
	}
	root, err := filepath.Abs(moduleRoot)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		t.Run(s.Name, func(t *testing.T) {
			start := time.Now()
			if err := kill(t.TempDir(), root, s); err != nil {
				t.Fatal(err)
			}
			t.Logf("killed in %.1fs", time.Since(start).Seconds())
		})
	}
}

// kill builds s's check against the mutated tree and runs it, in tmp:
// nil when every run fails with the expected text.
func kill(tmp, root string, s spec) error {
	mutated, err := s.apply(root)
	if err != nil {
		return err
	}
	// The compiler sees the mutant through an overlay, so the tree is
	// never written. A check that parses the source itself cannot see an
	// overlay and runs in a copy of the module instead.
	var overlay []string
	if s.ReadsSource {
		if root, err = copyModule(root, filepath.Join(tmp, "module")); err != nil {
			return fmt.Errorf("mutant %s: %v", s.Name, err)
		}
		if err := os.WriteFile(filepath.Join(root, s.File), mutated, 0o644); err != nil {
			return err
		}
	} else {
		if overlay, err = writeOverlay(tmp, filepath.Join(root, s.File), mutated); err != nil {
			return err
		}
	}

	bin := filepath.Join(tmp, "check")
	if s.Scenario != "" {
		if out, err := goCmd(root, append([]string{"build"}, append(overlay, "-o", bin, "./cmd/chaos")...)...); err != nil {
			return fmt.Errorf("mutant %s: build cmd/chaos: %v\n%s", s.Name, err, out)
		}
		for _, seed := range s.Seeds {
			what := fmt.Sprintf("chaos %s seed %d", s.Scenario, seed)
			repro := fmt.Sprintf("repro: make chaos SCENARIO=%s SEED=%d", s.Scenario, seed)
			if err := expectFailure(s, what, tmp, repro, bin, "-scenario", s.Scenario, "-seed", strconv.FormatInt(seed, 10)); err != nil {
				return err
			}
		}
		return nil
	}
	if out, err := goCmd(root, append([]string{"test", "-c"}, append(overlay, "-o", bin, s.Package)...)...); err != nil {
		return fmt.Errorf("mutant %s: build %s tests: %v\n%s", s.Name, s.Package, err, out)
	}
	for i := 1; i <= s.runs(); i++ {
		what := fmt.Sprintf("%s -run %s (run %d of %d)", s.Package, s.Run, i, s.runs())
		if err := expectFailure(s, what, filepath.Join(root, s.Package), "", bin, "-test.run", s.Run, "-test.count", "1"); err != nil {
			return err
		}
	}
	return nil
}

// expectFailure runs bin with args in dir and requires it to exit
// nonzero with output matching s.Expect and containing also (if set).
func expectFailure(s spec, what, dir, also, bin string, args ...string) error {
	ctx, cancel := context.WithTimeout(context.Background(), checkTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	switch {
	case ctx.Err() != nil:
		return fmt.Errorf("mutant %s: %s did not finish in %v\n%s", s.Name, what, checkTimeout, out)
	case err == nil:
		return fmt.Errorf("mutant %s SURVIVED: %s passed\n%s", s.Name, what, out)
	case !regexp.MustCompile(s.Expect).Match(out):
		return fmt.Errorf("mutant %s: %s failed, but not with %q (%v)\n%s", s.Name, what, s.Expect, err, out)
	case also != "" && !bytes.Contains(out, []byte(also)):
		return fmt.Errorf("mutant %s: %s failed without the line %q\n%s", s.Name, what, also, out)
	}
	return nil
}

// writeOverlay writes the mutated contents of file and an overlay that
// maps file to them into dir, and returns the -overlay flag.
func writeOverlay(dir, file string, mutated []byte) ([]string, error) {
	repl := filepath.Join(dir, filepath.Base(file))
	if err := os.WriteFile(repl, mutated, 0o644); err != nil {
		return nil, err
	}
	js, err := json.Marshal(map[string]map[string]string{"Replace": {file: repl}})
	if err != nil {
		return nil, err
	}
	ov := filepath.Join(dir, "overlay.json")
	if err := os.WriteFile(ov, js, 0o644); err != nil {
		return nil, err
	}
	return []string{"-overlay", ov}, nil
}

// copyModule copies the files git would commit from the module at root
// (tracked, plus untracked ones not ignored) to dst and returns dst.
func copyModule(root, dst string) (string, error) {
	cmd := exec.Command("git", "ls-files", "-z", "--cached", "--others", "--exclude-standard")
	cmd.Dir = root
	list, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git ls-files: %v", err)
	}
	for _, name := range strings.Split(strings.TrimSuffix(string(list), "\x00"), "\x00") {
		data, err := os.ReadFile(filepath.Join(root, name))
		if os.IsNotExist(err) {
			continue // deleted in the working tree
		}
		if err != nil {
			return "", err
		}
		to := filepath.Join(dst, name)
		if err := os.MkdirAll(filepath.Dir(to), 0o755); err != nil {
			return "", err
		}
		if err := os.WriteFile(to, data, 0o644); err != nil {
			return "", err
		}
	}
	return dst, nil
}

// goCmd runs the go command in dir and returns its combined output.
func goCmd(dir string, args ...string) ([]byte, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	return cmd.CombinedOutput()
}
