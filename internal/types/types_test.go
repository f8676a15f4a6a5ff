package types

import (
	"testing"
	"testing/quick"
)

func TestEntityName(t *testing.T) {
	cases := []struct {
		kind string
		id   int
		want string
	}{
		{EntityOSD, 0, "osd.0"},
		{EntityMDS, 12, "mds.12"},
		{EntityMon, 2, "mon.2"},
		{"client", 99, "client.99"},
	}
	for _, tc := range cases {
		if got := EntityName(tc.kind, tc.id); got != tc.want {
			t.Errorf("EntityName(%s,%d) = %q", tc.kind, tc.id, got)
		}
	}
}

func TestDaemonStateString(t *testing.T) {
	if StateUp.String() != "up" || StateDown.String() != "down" {
		t.Fatal("state strings wrong")
	}
}

func TestOSDMapCloneIsDeep(t *testing.T) {
	m := NewOSDMap()
	m.Epoch = 5
	m.OSDs[1] = OSDInfo{ID: 1, Addr: "osd.1", State: StateUp}
	m.Pools["data"] = PoolInfo{Name: "data", PGNum: 8, Replicas: 2}
	m.Classes["zlog"] = ClassDef{Name: "zlog", Version: 3, Script: "s"}
	m.Service["k"] = "v"

	c := m.Clone()
	if c.Epoch != 5 || len(c.OSDs) != 1 || c.Service["k"] != "v" {
		t.Fatalf("clone lost data: %+v", c)
	}
	// Mutating the clone must not touch the original.
	c.OSDs[2] = OSDInfo{ID: 2}
	c.Pools["other"] = PoolInfo{}
	c.Classes["x"] = ClassDef{}
	c.Service["k"] = "changed"
	if len(m.OSDs) != 1 || len(m.Pools) != 1 || len(m.Classes) != 1 || m.Service["k"] != "v" {
		t.Fatal("clone aliases original maps")
	}
}

func TestMDSMapCloneIsDeep(t *testing.T) {
	m := NewMDSMap()
	m.Epoch = 2
	m.BalancerVersion = "v1"
	m.Ranks[0] = MDSInfo{Rank: 0, State: StateUp}
	m.Service["mds.load.0"] = "5.0"

	c := m.Clone()
	c.Ranks[1] = MDSInfo{Rank: 1}
	c.Service["x"] = "y"
	if len(m.Ranks) != 1 || len(m.Service) != 1 {
		t.Fatal("clone aliases original maps")
	}
	if c.BalancerVersion != "v1" {
		t.Fatal("balancer version lost")
	}
}

func TestUpOSDsSortedAndFiltered(t *testing.T) {
	m := NewOSDMap()
	m.OSDs[3] = OSDInfo{ID: 3, State: StateUp}
	m.OSDs[1] = OSDInfo{ID: 1, State: StateUp}
	m.OSDs[2] = OSDInfo{ID: 2, State: StateDown}
	got := m.UpOSDs()
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("UpOSDs = %v", got)
	}
}

func TestUpRanksSortedAndFiltered(t *testing.T) {
	m := NewMDSMap()
	m.Ranks[2] = MDSInfo{Rank: 2, State: StateUp}
	m.Ranks[0] = MDSInfo{Rank: 0, State: StateDown}
	m.Ranks[1] = MDSInfo{Rank: 1, State: StateUp}
	got := m.UpRanks()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("UpRanks = %v", got)
	}
}

func TestEncodeDecodeUpdates(t *testing.T) {
	in := []Update{
		{Source: "client.1", Ops: []Op{
			{Code: OpClassInstall, Key: "zlog", Value: "function f() end", Aux: "logging"},
			{Code: OpServiceSet, Map: MapMDS, Key: "k", Value: "v"},
		}},
		{Source: "mon.0", Ops: []Op{{Code: OpOSDDown, Key: "3"}}},
	}
	b, err := EncodeUpdates(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeUpdates(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || len(out[0].Ops) != 2 {
		t.Fatalf("decoded %+v", out)
	}
	if out[0].Ops[0].Value != "function f() end" || out[1].Ops[0].Code != OpOSDDown {
		t.Fatalf("round trip mangled ops: %+v", out)
	}
}

func TestDecodeUpdatesRejectsGarbage(t *testing.T) {
	if _, err := DecodeUpdates([]byte("{not json")); err == nil {
		t.Fatal("garbage decoded")
	}
}

func TestPropUpdatesRoundTrip(t *testing.T) {
	f := func(source, key, value, aux string, nOps uint8) bool {
		n := int(nOps % 8)
		u := Update{Source: source}
		for i := 0; i < n; i++ {
			u.Ops = append(u.Ops, Op{Code: OpServiceSet, Key: key, Value: value, Aux: aux})
		}
		b, err := EncodeUpdates([]Update{u})
		if err != nil {
			return false
		}
		out, err := DecodeUpdates(b)
		if err != nil || len(out) != 1 || out[0].Source != source || len(out[0].Ops) != n {
			return false
		}
		for _, op := range out[0].Ops {
			if op.Key != key || op.Value != value || op.Aux != aux {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropCloneEpochAndSizePreserved(t *testing.T) {
	f := func(epoch uint32, nOSDs, nKeys uint8) bool {
		m := NewOSDMap()
		m.Epoch = Epoch(epoch)
		for i := 0; i < int(nOSDs%32); i++ {
			m.OSDs[i] = OSDInfo{ID: i, State: StateUp}
		}
		for i := 0; i < int(nKeys%32); i++ {
			m.Service[string(rune('a'+i))] = "v"
		}
		c := m.Clone()
		return c.Epoch == m.Epoch && len(c.OSDs) == len(m.OSDs) && len(c.Service) == len(m.Service)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
