// Package zlog is the high-performance distributed shared log of
// Section 5.2: an implementation of the CORFU protocol on Malacology.
//
// The three CORFU roles map onto Malacology interfaces exactly as the
// paper describes:
//
//   - the sequencer is a sequencer-typed inode in the metadata service
//     (File Type interface); its capability policy trades latency for
//     throughput (Shared Resource interface, Figures 5-7);
//   - the storage interface — write-once log entries with epoch guards
//     and an atomic seal that returns the maximum written position — is
//     a script object-class installed through the monitor and executed
//     on the object storage daemons (Data I/O interface);
//   - the log epoch lives in the Service Metadata interface, so stale
//     clients are invalidated cluster-wide during recovery.
package zlog

import (
	"context"
	"fmt"
	"strconv"

	"repro/internal/rados"
	"repro/internal/types"
)

// ClassName is the object class implementing the CORFU storage
// interface.
const ClassName = "zlog"

// StorageClassScript is the CORFU storage interface as a dynamically
// installed script class (the paper's Lua object interface). Entry
// states in the omap: "D<data>" written, "F" filled (junk), "T"
// trimmed. The object xattrs hold the seal epoch and the maximum
// written position.
//
// Every method input is "<epoch>:<args...>"; requests tagged with an
// epoch below the stored seal epoch are rejected ESTALE — the mechanism
// recovery uses to invalidate stale clients (§5.2.2).
const StorageClassScript = `
-- parse "<head>:<tail>" at the first colon
local function split2(s)
	local i = string.find(s, ":")
	if i == nil then error("EINVAL: malformed input") end
	return string.sub(s, 1, i - 1), string.sub(s, i + 1)
end

local function checkepoch(cls, e)
	local epoch = tonumber(e)
	if epoch == nil then error("EINVAL: bad epoch") end
	local sealed = tonumber(cls.getxattr("epoch")) or 0
	if epoch < sealed then error("ESTALE: epoch " .. e .. " < " .. tostring(sealed)) end
	return epoch
end

local function bumpmax(cls, pos)
	local m = tonumber(cls.getxattr("maxpos")) or -1
	if pos > m then cls.setxattr("maxpos", tostring(pos)) end
end

-- write(<epoch>:<pos>:<data>): write-once
function write(cls)
	local e, rest = split2(cls.input)
	checkepoch(cls, e)
	local p, data = split2(rest)
	local pos = tonumber(p)
	if pos == nil or pos < 0 then error("EINVAL: bad position") end
	local key = "e." .. p
	if cls.omap_get(key) ~= nil then error("EEXIST: position written") end
	cls.omap_set(key, "D" .. data)
	bumpmax(cls, pos)
	return p
end

-- writev(<epoch>:<n>:{<pos>:<len>:<data>}*n): write-once vector.
-- Entries are length-prefixed so data bytes never need escaping. The
-- method is all-or-nothing: one collision aborts the call and the undo
-- log rolls back every entry already applied.
function writev(cls)
	local e, rest = split2(cls.input)
	checkepoch(cls, e)
	local nstr, body = split2(rest)
	local n = tonumber(nstr)
	if n == nil or n < 1 then error("EINVAL: bad count") end
	local m = tonumber(cls.getxattr("maxpos")) or -1
	local i = 0
	while i < n do
		local p, r2 = split2(body)
		local lenstr, r3 = split2(r2)
		local pos = tonumber(p)
		local len = tonumber(lenstr)
		if pos == nil or pos < 0 or len == nil or len < 0 then error("EINVAL: bad entry") end
		local data = string.sub(r3, 1, len)
		if string.len(data) < len then error("EINVAL: truncated entry") end
		body = string.sub(r3, len + 1)
		local key = "e." .. p
		if cls.omap_get(key) ~= nil then error("EEXIST: position written") end
		cls.omap_set(key, "D" .. data)
		if pos > m then m = pos end
		i = i + 1
	end
	cls.setxattr("maxpos", tostring(m))
	return nstr
end

-- read(<epoch>:<pos>): returns the raw entry state
function read(cls)
	local e, p = split2(cls.input)
	checkepoch(cls, e)
	local v = cls.omap_get("e." .. p)
	if v == nil then error("ENOENT: unwritten") end
	return v
end

-- fill(<epoch>:<pos>): mark a hole as junk; idempotent on filled
function fill(cls)
	local e, p = split2(cls.input)
	checkepoch(cls, e)
	local key = "e." .. p
	local v = cls.omap_get(key)
	if v ~= nil then
		if v == "F" then return "F" end
		error("EEXIST: position written")
	end
	cls.omap_set(key, "F")
	bumpmax(cls, tonumber(p))
	return "F"
end

-- trim(<epoch>:<pos>): release a position's storage
function trim(cls)
	local e, p = split2(cls.input)
	checkepoch(cls, e)
	cls.omap_set("e." .. p, "T")
	bumpmax(cls, tonumber(p))
	return "T"
end

-- seal(<epoch>): atomically install the epoch and return maxpos
function seal(cls)
	local epoch = tonumber(cls.input)
	if epoch == nil then error("EINVAL: bad epoch") end
	local sealed = tonumber(cls.getxattr("epoch")) or 0
	if epoch <= sealed then error("ESTALE: seal epoch not newer") end
	cls.setxattr("epoch", tostring(epoch))
	return cls.getxattr("maxpos") or "-1"
end

-- maxpos(<epoch>): read the maximum written position
function maxpos(cls)
	local e = cls.input
	checkepoch(cls, e)
	return cls.getxattr("maxpos") or "-1"
end
`

// EpochKey is the service-metadata key holding log name's epoch.
func EpochKey(name string) string { return "zlog.epoch." + name }

// prepare readies log name on rc's cached map with at most one commit:
// the storage class is installed and the log's epoch key set, each only
// if the map lacks it, so a repeated open commits nothing. The commit
// is answered with the map it made, which rc then caches. It returns
// the log's epoch.
func prepare(ctx context.Context, rc *rados.Client, name string) (uint64, error) {
	m := rc.CachedMap()
	ep, err := epochIn(m, name)
	if err != nil {
		return 0, err
	}
	var ops []types.Op
	if _, ok := m.Classes[ClassName]; !ok {
		ops = append(ops, types.Op{
			Code: types.OpClassInstall, Key: ClassName, Value: StorageClassScript, Aux: "logging",
		})
	}
	if ep == 0 {
		ops = append(ops, types.Op{Code: types.OpServiceSet, Map: types.MapOSD, Key: EpochKey(name), Value: "1"})
		ep = 1
	}
	if len(ops) > 0 {
		maps, err := rc.Mon().Submit(ctx, types.Update{Ops: ops})
		if err != nil {
			return 0, fmt.Errorf("zlog: prepare log %q: %w", name, err)
		}
		rc.NoteMap(maps.OSD)
	}
	return ep, nil
}

// epochIn reads log name's epoch from m; 0 when the log has none yet.
func epochIn(m *types.OSDMap, name string) (uint64, error) {
	v, ok := m.Service[EpochKey(name)]
	if !ok {
		return 0, nil
	}
	ep, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("zlog: corrupt epoch %q: %w", v, err)
	}
	return ep, nil
}
