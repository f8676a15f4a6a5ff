package mds

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/rados"
	"repro/internal/retry"
	"repro/internal/stopctx"
	"repro/internal/types"
)

// Metadata mutations are journaled to RADOS, which is what lets a
// surviving rank recover a failed peer's state: "recovery is the same
// as (and is inherited from) the CephFS metadata service" (Section
// 5.2.2). The journal is an append-only object of JSON lines per rank.
//
// Records come in two classes. Namespace records (create, export,
// import, and SetValue's value) are appended before the request
// replies: takeover treats them as the namespace's truth, and a ZLog
// recovery's tail install must be journaled before its client moves on.
// Sequencer-value checkpoints (a cap release's final value, and the
// every-JournalEvery round-trip checkpoint) never sit on a reply path:
// they are max-merged per path into the rank's pending set, and one
// flusher at a time appends the whole set as one record batch. A crash
// loses at most that set: the same class of loss as the JournalEvery
// window or a grant delivered before its record, which replayJournal's
// max-fold and ZLog's seal + maxpos recovery already cover.

// journalEntry is one journal record.
type journalEntry struct {
	Op     string    `json:"op"` // create | value | policy | export | import
	Path   string    `json:"path"`
	Type   InodeType `json:"type,omitempty"`
	Value  uint64    `json:"value,omitempty"`
	Policy CapPolicy `json:"policy,omitempty"`
	Mode   string    `json:"mode,omitempty"`
	Target int       `json:"target,omitempty"`
}

// journalPool is the RADOS pool holding every rank's journal; core.Boot
// always creates it.
const journalPool = "metadata"

func journalObject(rank int) string { return fmt.Sprintf("mds.journal.%d", rank) }

// journal appends one namespace record to this rank's journal object
// before the caller replies. Journal failures are reported to the
// cluster log but do not fail the client operation.
func (s *Server) journal(e journalEntry) {
	if err := s.appendJournal(appendRecord(nil, e)); err != nil {
		s.logJournalErr(err)
	}
}

// appendJournal appends encoded records to this rank's journal object.
// The append is cut short when the rank stops, so none leaves a stopped
// rank.
func (s *Server) appendJournal(lines []byte) error {
	ctx, cancel := stopctx.WithTimeout(s.stopCh, 2*time.Second)
	defer cancel()
	return s.rc.Append(ctx, journalPool, journalObject(s.cfg.Rank), lines)
}

func (s *Server) logJournalErr(err error) {
	ctx, cancel := stopctx.WithTimeout(s.stopCh, time.Second)
	defer cancel()
	s.monc.Log(ctx, "error", "journal append failed: "+err.Error()) //nolint:errcheck
}

// appendRecord appends e to buf as one journal line.
func appendRecord(buf []byte, e journalEntry) []byte {
	line, err := json.Marshal(e)
	if err != nil {
		return buf
	}
	return append(append(buf, line...), '\n')
}

// mergeMax raises set[path] to v.
func mergeMax(set map[string]uint64, path string, v uint64) {
	if cur, ok := set[path]; !ok || v > cur {
		set[path] = v
	}
}

// checkpointLocked records path's sequencer value v in the pending set
// and starts the flusher unless one is already running or the rank is
// stopping. Caller holds s.mu, which orders the wg.Add before Stop's
// wg.Wait.
func (s *Server) checkpointLocked(path string, v uint64) {
	mergeMax(s.ckpt, path, v)
	if s.ckptFlushing || s.stopped {
		return
	}
	s.ckptFlushing = true
	s.wg.Add(1)
	go s.flushCheckpoints()
}

// flushCheckpoints is the rank's one checkpoint writer. It takes the
// whole pending set and appends it as one batch of value records;
// checkpoints recorded during the flight go into the next batch. A
// failed append puts its set back and retries after a backoff, so once
// the journal is reachable again it converges to the highest values.
// It exits when the set is empty or the rank stops: a stopped rank's
// set is lost, as in a crash.
func (s *Server) flushCheckpoints() {
	defer s.wg.Done()
	for attempt := 0; ; {
		s.mu.Lock()
		batch := s.ckpt
		if len(batch) == 0 || s.stopped {
			s.ckptFlushing = false
			s.mu.Unlock()
			return
		}
		s.ckpt = make(map[string]uint64, len(batch))
		s.mu.Unlock()

		// Replay folds value records by maximum, so their order is free.
		var lines []byte
		for p, v := range batch {
			lines = appendRecord(lines, journalEntry{Op: "value", Path: p, Value: v})
		}
		err := s.appendJournal(lines)
		if err == nil {
			attempt = 0
			continue
		}
		s.mu.Lock()
		for p, v := range batch {
			mergeMax(s.ckpt, p, v)
		}
		s.mu.Unlock()
		if attempt == 0 {
			s.logJournalErr(err) // once per outage, not once per retry
		}
		// A stop cuts the wait short; the loop head then exits.
		wctx, cancel := stopctx.WithTimeout(s.stopCh, time.Second)
		retry.Backoff(wctx, attempt, 10*time.Millisecond, 500*time.Millisecond)
		cancel()
		attempt++
	}
}

// replayJournal folds a rank's journal into an inode table.
func (s *Server) replayJournal(ctx context.Context, rank int) (map[string]*inode, error) {
	raw, err := s.rc.Read(ctx, journalPool, journalObject(rank))
	if err != nil {
		if errors.Is(err, rados.ErrNotFound) {
			return map[string]*inode{}, nil
		}
		return nil, err
	}
	inodes := make(map[string]*inode)
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var e journalEntry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			continue // skip torn record
		}
		switch e.Op {
		case "create":
			if _, ok := inodes[e.Path]; !ok {
				inodes[e.Path] = &inode{Inode: Inode{Path: e.Path, Type: e.Type, Policy: e.Policy}}
			}
		case "value":
			if ino, ok := inodes[e.Path]; ok && e.Value > ino.Value {
				ino.Value = e.Value
			}
		case "policy":
			if ino, ok := inodes[e.Path]; ok {
				ino.Policy = e.Policy
			}
		case "export":
			delete(inodes, e.Path)
		case "import":
			if _, ok := inodes[e.Path]; !ok {
				inodes[e.Path] = &inode{Inode: Inode{Path: e.Path, Type: e.Type, Policy: e.Policy, Value: e.Value}}
			}
		}
	}
	return inodes, nil
}

// checkTakeover reacts to MDS map changes: when a rank is marked down
// and this server is the lowest-ranked survivor, it replays the failed
// rank's journal and adopts its inodes.
func (s *Server) checkTakeover(m *types.MDSMap) {
	up := m.UpRanks()
	if len(up) == 0 || up[0] != s.cfg.Rank {
		return
	}
	var downRanks []int
	for r, info := range m.Ranks {
		if info.State == types.StateDown && r != s.cfg.Rank {
			downRanks = append(downRanks, r)
		}
	}
	for _, r := range downRanks {
		go s.takeover(r)
	}
}

// takeover adopts a failed rank's namespace.
func (s *Server) takeover(rank int) {
	ctx, cancel := stopctx.WithTimeout(s.stopCh, 10*time.Second)
	defer cancel()
	recovered, err := s.replayJournal(ctx, rank)
	if err != nil {
		s.monc.Log(ctx, "error", fmt.Sprintf("takeover of mds.%d failed: %v", rank, err)) //nolint:errcheck
		return
	}
	adopted := 0
	s.mu.Lock()
	for path, ino := range recovered {
		if _, ok := s.inodes[path]; ok {
			continue
		}
		// A previously forwarded/redirected path now lives here.
		delete(s.forward, path)
		delete(s.redirect, path)
		s.inodes[path] = ino
		adopted++
	}
	s.mu.Unlock()
	if adopted == 0 {
		return
	}
	// Point clients at the new authority.
	for path := range recovered {
		if err := s.monc.SetService(ctx, types.MapMDS, AuthKey(path), fmt.Sprint(s.cfg.Rank)); err != nil {
			s.monc.Log(ctx, "error", "takeover auth update failed: "+err.Error()) //nolint:errcheck
		}
	}
	s.monc.Log(ctx, "info", fmt.Sprintf("mds.%d adopted %d inodes from failed mds.%d", s.cfg.Rank, adopted, rank)) //nolint:errcheck
}
