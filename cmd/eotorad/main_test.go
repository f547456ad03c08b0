package main

import (
	"strings"
	"testing"
)

// -shards takes only 0 or 1 (off) and -1 (one shard per cluster); any
// other count fails before the daemon listens, with an error naming -1.
func TestRunRejectsShardCounts(t *testing.T) {
	for _, n := range []string{"2", "8", "-2", "-3"} {
		err := run([]string{"-devices", "10", "-listen", "127.0.0.1:0", "-shards", n})
		if err == nil || !strings.Contains(err.Error(), "-1") {
			t.Errorf("-shards %s: %v, want an error naming -1", n, err)
		}
	}
}
