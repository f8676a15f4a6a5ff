package mds

import "context"

// JournalObject names rank's journal object.
var JournalObject = journalObject

// ReplayValues replays rank's journal the way a takeover does and
// returns each recovered inode's sequencer value.
func (s *Server) ReplayValues(ctx context.Context, rank int) (map[string]uint64, error) {
	inodes, err := s.replayJournal(ctx, rank)
	if err != nil {
		return nil, err
	}
	out := make(map[string]uint64, len(inodes))
	for p, ino := range inodes {
		out[p] = ino.Value
	}
	return out, nil
}

// RecordCheckpoint records a sequencer-value checkpoint for path the
// way a cap release does.
func (s *Server) RecordCheckpoint(path string, v uint64) {
	s.mu.Lock()
	s.checkpointLocked(path, v)
	s.mu.Unlock()
}
