package rados

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

// opTableProblems lists what is wrong with a table of op rows indexed
// by OpCode: a row with no name, a shared name or no declared class,
// and a mutating op that neither journals nor forwards as a write-set.
func opTableProblems(specs []opSpec) []string {
	var bad []string
	seen := make(map[string]int)
	for i, s := range specs {
		if s.name == "" {
			bad = append(bad, fmt.Sprintf("op %d has no name", i))
		} else if prev, dup := seen[s.name]; dup {
			bad = append(bad, fmt.Sprintf("ops %d and %d share the name %q", prev, i, s.name))
		}
		seen[s.name] = i
		if s.class == classUndeclared || s.class > classReplicaOnly {
			bad = append(bad, fmt.Sprintf("op %d (%q) declares no class", i, s.name))
			continue
		}
		if s.class != classRead && !s.asTxn() && s.journal == 0 {
			bad = append(bad, fmt.Sprintf("op %d (%q) mutates but has no journal kind", i, s.name))
		}
	}
	return bad
}

// opProbe boots a one-OSD cluster holding a live object with data, an
// omap key and an xattr, and returns a sender that delivers an op on it
// to the primary and checks the op left the object's version alone.
func opProbe(t *testing.T) (o *OSD, send func(op OpCode, replica bool) (OpReply, uint64)) {
	t.Helper()
	tc := bootCluster(t, 1, 1)
	ctx := ctxT(t, 10*time.Second)
	const name = "live"
	if err := tc.client.WriteFull(ctx, "data", name, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := tc.client.OmapSet(ctx, "data", name, map[string][]byte{"k": []byte("v")}); err != nil {
		t.Fatal(err)
	}
	if err := tc.client.SetXattr(ctx, "data", name, "x", []byte("y")); err != nil {
		t.Fatal(err)
	}
	o = tc.osds[0]
	e := slotOf(o, name)
	opID := uint64(1000)
	send = func(op OpCode, replica bool) (OpReply, uint64) {
		t.Helper()
		opID++
		req := OpRequest{Pool: "data", Object: name, Epoch: o.Epoch(), Op: op, OpID: opID,
			Key: "x", Keys: []string{name, "k"}, Replica: replica}
		e.mu.Lock()
		before := e.ver
		e.mu.Unlock()
		rep, _ := o.handleOp(ctx, probeClient, &req)
		e.mu.Lock()
		after := e.ver
		e.mu.Unlock()
		if after != before {
			t.Errorf("%s (replica %v) moved the version %d -> %d", op, replica, before, after)
		}
		return rep, opID
	}
	return o, send
}

const probeClient = wire.Addr("client.0")

// TestOpTable checks every row of opSpecs, so a new op cannot be added
// without declaring what it is, and then holds the OSD to what the rows
// declare: an op that forwards as a write-set is refused as a forward,
// and a replica-only op is refused from a client. The codes on either
// side of the table, from a client or as a forward, are refused before
// any row is read.
func TestOpTable(t *testing.T) {
	for _, bad := range opTableProblems(opSpecs[:]) {
		t.Error(bad)
	}
	if len(opTableProblems(append(slices.Clone(opSpecs[:]), opSpec{}))) == 0 {
		t.Error("a blank row passes the table check")
	}

	_, send := opProbe(t)
	for _, op := range []OpCode{-1, OpCode(len(opSpecs))} {
		for _, replica := range []bool{false, true} {
			if rep, _ := send(op, replica); rep.Result != EINVAL {
				t.Errorf("%s (replica %v) = %v, want EINVAL", op, replica, rep.Result)
			}
		}
	}
	for i := range opSpecs {
		op, s := OpCode(i), &opSpecs[i]
		switch {
		case s.asTxn():
			if rep, _ := send(op, true); rep.Result != EINVAL {
				t.Errorf("%s as a forward = %v, want EINVAL", op, rep.Result)
			}
		case s.class == classReplicaOnly:
			if rep, _ := send(op, false); rep.Result != EINVAL {
				t.Errorf("%s from a client = %v, want EINVAL", op, rep.Result)
			}
		}
	}
}

// TestEveryOpCodeHasAName: every code in opSpecs prints its own,
// unshared name, and a code on either side of the table prints as a
// number.
func TestEveryOpCodeHasAName(t *testing.T) {
	seen := make(map[string]OpCode)
	for i := range opSpecs {
		op := OpCode(i)
		name := op.String()
		if strings.HasPrefix(name, "op(") {
			t.Errorf("opcode %d has no name", i)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("opcodes %d and %d share the name %q", int(prev), i, name)
		}
		seen[name] = op
	}
	if got := OpTxn.String(); got != "txn" {
		t.Errorf("OpTxn.String() = %q", got)
	}
	for _, op := range []OpCode{-1, OpCode(len(opSpecs))} {
		if got, want := op.String(), fmt.Sprintf("op(%d)", int(op)); got != want {
			t.Errorf("opcode %d is named %q, want %q", int(op), got, want)
		}
	}
}

// TestReadOnlyOpsSkipReplayCache: a read-class op skips the primary's
// replay cache on a resend, so it must be one nothing is ever recorded
// for. Each read-class row of opSpecs, sent from a client to a live
// object, leaves the version where it was and enters no replay entry,
// where a client write on the same object does enter one.
func TestReadOnlyOpsSkipReplayCache(t *testing.T) {
	o, send := opProbe(t)
	reads := 0
	for i := range opSpecs {
		op := OpCode(i)
		if opSpecs[i].class != classRead {
			continue
		}
		reads++
		_, opID := send(op, false)
		if _, cached := o.replayGet(probeClient, opID); cached {
			t.Errorf("%s entered the replay cache", op)
		}
	}
	if reads == 0 {
		t.Fatal("no read-class row in opSpecs")
	}
	req := OpRequest{Pool: "data", Object: "live", Epoch: o.Epoch(), Op: OpWriteFull, OpID: 1, Data: []byte("again")}
	ctx := ctxT(t, 10*time.Second)
	rep, later := o.handleOp(ctx, probeClient, &req)
	if rep.Result != OK {
		t.Fatalf("write = %v", rep.Result)
	}
	if later != nil {
		later.RunLater(ctx)
	}
	if _, cached := o.replayGet(probeClient, req.OpID); !cached {
		t.Error("a client WriteFull is not in the replay cache")
	}
}
