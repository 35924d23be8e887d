package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// The correctness gate: every response body's SHA-256 must equal the
// golden digest stored for its call key. Golden files are regenerated
// with --regen-golden from a standalone manager with serial replay.

// golden is one workload's key → digest table plus the divergences seen
// in a run.
type golden struct {
	digests map[string]string

	mu       sync.Mutex
	diverged []string
}

func goldenPath(dir, workload string) string {
	return filepath.Join(dir, "golden", workload+".txt")
}

// loadGolden reads "key digest" lines.
func loadGolden(dir, workload string) (*golden, error) {
	f, err := os.Open(goldenPath(dir, workload))
	if err != nil {
		return nil, fmt.Errorf("golden digests: %w (regenerate with --regen-golden)", err)
	}
	defer f.Close()
	g := &golden{digests: map[string]string{}}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, digest, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("golden digests %s: malformed line %q", workload, line)
		}
		g.digests[key] = digest
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("golden digests %s: %w", workload, err)
	}
	return g, nil
}

func digestOf(body []byte) string {
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:])
}

// check compares a response body with the golden digest of key and
// records the key when it diverges. Safe for concurrent use.
func (g *golden) check(key string, body []byte) bool {
	want, ok := g.digests[key]
	if ok && want == digestOf(body) {
		return true
	}
	g.fail(key)
	return false
}

// fail records a key whose request failed or diverged.
func (g *golden) fail(key string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.diverged = append(g.diverged, key)
}

// divergedKeys returns the distinct failed keys in first-seen order.
func (g *golden) divergedKeys() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	seen := map[string]bool{}
	var out []string
	for _, k := range g.diverged {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// writeGolden writes a workload's golden file in the order given.
func writeGolden(dir, workload string, keys []string, digests map[string]string) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s response-body SHA-256 digests, one \"key digest\" per line.\n", workload)
	b.WriteString("# Regenerate with: bash perfbench/run.sh --regen-golden\n")
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %s\n", k, digests[k])
	}
	return os.WriteFile(goldenPath(dir, workload), []byte(b.String()), 0o644)
}
