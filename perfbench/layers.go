package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"moira/internal/client"
	"moira/internal/clock"
	"moira/internal/core"
	"moira/internal/db"
	"moira/internal/dcm"
	"moira/internal/gen"
	"moira/internal/hesiod"
	"moira/internal/kerberos"
	"moira/internal/mailhub"
	"moira/internal/mrerr"
	"moira/internal/nfshost"
	"moira/internal/protocol"
	"moira/internal/queries"
	"moira/internal/stats"
	"moira/internal/update"
	"moira/internal/zephyr"
)

// layerEnv is what the per-layer stage needs from a workload: its
// database, KDC and server, its keys, and the numbers only the workload's
// own run can supply.
type layerEnv struct {
	d       *db.DB
	kdc     *kerberos.KDC
	addr    string // the Moira server the workload talks to
	adminPw string // adminLogin's password
	keys    *keys
	seed    int64
	clk     clock.Clock // the clock the workload's KDC and server run on
	spans   *spanLog

	populateS, setupS float64

	pair     *pair             // the workload's own failover pair, if any
	sideDB   *db.DB            // the database bypassed layers are timed on; nil means d
	dcmStats []*dcm.CycleStats // the workload's fleet passes, if any
}

// side returns the database the layers this workload bypasses are timed
// on.
func (env *layerEnv) side() *db.DB {
	if env.sideDB != nil {
		return env.sideDB
	}
	return env.d
}

// selfLogin is the benchmark-owned account the per-layer stage mutates.
const selfLogin = "pbself"

const selfPw = "pb-self"

// measureLayers times the calls into each layer's public functions on the
// workload's own inputs and records the per-layer metrics.
func measureLayers(r *run, env *layerEnv) error {
	for _, name := range []string{"rpc.get_user_by_login", "rpc.write", "rpc.ryw", "session.connect", "dcm.fleet"} {
		if ds := env.spans.durations(name); len(ds) > 0 {
			fmt.Printf("# traced %-28s p50 %.1f us over %d calls\n", name, median(ds), len(ds))
		}
	}
	adminCx := &queries.Context{DB: env.d, Principal: adminLogin, App: benchApp}
	adminCx.ResolveUser()
	p := newPicker(env.keys, env.seed*1000+99)

	// The read mix in memory: execution per handle, tuples, frames.
	var sample []call
	for i := 0; i < 512; i++ {
		sample = append(sample, p.mix())
	}
	replies := make([][][]string, len(sample))
	tuples := 0
	for i, c := range sample {
		if err := queries.Execute(adminCx, c.name, c.args, func(t []string) error {
			replies[i] = append(replies[i], append([]string(nil), t...))
			return nil
		}); err != nil {
			return fmt.Errorf("execute %s %v: %w", c.name, c.args, err)
		}
		tuples += len(replies[i])
	}
	r.layerMetric("queries.tuples_per_call", float64(tuples)/float64(len(sample)), "count")
	codecNS, frameBytes, err := codec(sample, replies)
	if err != nil {
		return err
	}
	r.layerMetric("protocol.codec_ns", codecNS, "ns/call")
	r.layerMetric("protocol.frame_bytes", frameBytes, "B/call")

	type timedCall struct {
		c    call
		exec float64 // µs in queries.Execute
	}
	var executed []timedCall
	for _, h := range mixHandles {
		var ds []float64
		for i := 0; i < 200; i++ {
			c := p.point(h)
			t := time.Now()
			err := queries.Execute(adminCx, c.name, c.args, func([]string) error { return nil })
			d := us(time.Since(t))
			if err != nil {
				return fmt.Errorf("execute %s %v: %w", c.name, c.args, err)
			}
			ds = append(ds, d)
			executed = append(executed, timedCall{c, d})
		}
		r.layerMetric("queries.execute_us."+h, median(ds), "us")
	}
	r.layerMetric("db.lookup_ns", dbLookups(env.d, env.keys), "ns")

	// The RPC layers, serial over loopback.
	nc, err := client.DialTimeout(env.addr, 10*time.Second, env.clk)
	if err != nil {
		return err
	}
	noop, err := timeIt(2000, nc.Noop)
	nc.Disconnect()
	if err != nil {
		return fmt.Errorf("noop: %w", err)
	}
	r.layerMetric("client.noop_us", us(noop), "us")
	ac, err := client.DialTimeout(env.addr, 10*time.Second, env.clk)
	if err != nil {
		return err
	}
	defer ac.Disconnect()
	creds, err := env.kdc.GetTicket(adminLogin, env.adminPw, core.MoiraServicePrincipal)
	if err != nil {
		return err
	}
	if err := ac.Auth(creds, benchApp); err != nil {
		return err
	}
	var self []float64
	for k := 0; k < 3; k++ {
		for _, e := range executed {
			t := time.Now()
			err := ac.Query(e.c.name, e.c.args, func([]string) error { return nil })
			d := us(time.Since(t))
			if err != nil {
				return fmt.Errorf("rpc %s %v: %w", e.c.name, e.c.args, err)
			}
			self = append(self, d-e.exec)
		}
	}
	r.layerMetric("server.self_us", median(self)-codecNS/1e3, "us")
	allocs, allocBytes, err := rpcAllocs(ac, env.keys.logins[0])
	if err != nil {
		return err
	}
	r.layerMetric("rpc.allocs_per_call", allocs, "count")
	r.layerMetric("rpc.alloc_bytes_per_call", allocBytes, "B")

	// Kerberos, access control and mutation, as one self-service
	// session's write would run them.
	if err := ensureSelf(env.d, env.kdc); err != nil {
		return err
	}
	ticket, err := timeIt(500, func() error {
		_, err := env.kdc.GetTicket(selfLogin, selfPw, core.MoiraServicePrincipal)
		return err
	})
	if err != nil {
		return err
	}
	r.layerMetric("kerberos.ticket_us", us(ticket), "us")
	key, err := env.kdc.Srvtab(core.MoiraServicePrincipal)
	if err != nil {
		return err
	}
	ver := kerberos.NewVerifier(core.MoiraServicePrincipal, key, env.clk)
	selfCreds, err := env.kdc.GetTicket(selfLogin, selfPw, core.MoiraServicePrincipal)
	if err != nil {
		return err
	}
	var payloads []*kerberos.AuthPayload
	for i := 0; i < 500; i++ {
		payloads = append(payloads, kerberos.BuildAuth(selfCreds, benchApp, env.clk))
	}
	next := 0
	verify, err := timeIt(len(payloads), func() error {
		_, _, err := ver.Verify(payloads[next])
		next++
		return err
	})
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	r.layerMetric("kerberos.verify_us", us(verify), "us")
	selfCx := &queries.Context{DB: env.d, Principal: selfLogin, App: benchApp}
	selfCx.ResolveUser()
	mut := func(i int) []string { return []string{selfLogin, "/bin/pbl" + strconv.Itoa(i)} }
	check, err := timeIt(500, func() error {
		cx := &queries.Context{DB: env.d, Principal: selfLogin, UserID: selfCx.UserID, App: benchApp}
		return queries.CheckAccess(cx, "update_user_shell", mut(0))
	})
	if err != nil {
		return fmt.Errorf("access check: %w", err)
	}
	r.layerMetric("acl.check_us", us(check), "us")
	i := 0
	mutate, err := timeIt(200, func() error {
		i++
		return queries.Execute(selfCx, "update_user_shell", mut(i), nil)
	})
	if err != nil {
		return fmt.Errorf("mutate: %w", err)
	}
	r.layerMetric("queries.mutate_us", us(mutate), "us")
	syncs, jbytes, err := journalPerCommit()
	if err != nil {
		return err
	}
	r.layerMetric("journal.syncs_per_commit", syncs, "count")
	r.layerMetric("journal.bytes_per_commit", jbytes, "B")

	lag, err := replicaLag(env)
	if err != nil {
		return err
	}
	r.layerMetric("replica.lag_us", lag, "us")

	if err := genLayers(r, env); err != nil {
		return err
	}
	dcmCounts(r, env.dcmStats)
	r.layerMetric("setup.populate_s", env.populateS, "s")
	r.layerMetric("setup.other_s", env.setupS-env.populateS, "s")
	return nil
}

// codec encodes and decodes the sample's request and reply frames in
// memory and returns the time and bytes per call.
func codec(sample []call, replies [][][]string) (float64, float64, error) {
	var reqs []*protocol.Request
	var reps [][]*protocol.Reply
	for i, c := range sample {
		reqs = append(reqs, &protocol.Request{Version: protocol.Version, Op: protocol.OpQuery,
			Args: protocol.BytesArgs(append([]string{c.name}, c.args...))})
		var rs []*protocol.Reply
		for _, t := range replies[i] {
			rs = append(rs, &protocol.Reply{Version: protocol.Version, Code: int32(mrerr.MrMoreData), Fields: protocol.BytesArgs(t)})
		}
		rs = append(rs, &protocol.Reply{Version: protocol.Version})
		reps = append(reps, rs)
	}
	var buf bytes.Buffer
	var rounds int
	start := time.Now()
	for rounds = 0; rounds < 3 || time.Since(start) < 300*time.Millisecond; rounds++ {
		for i := range reqs {
			buf.Reset()
			if err := protocol.WriteRequest(&buf, reqs[i]); err != nil {
				return 0, 0, err
			}
			for _, rep := range reps[i] {
				if err := protocol.WriteReply(&buf, rep); err != nil {
					return 0, 0, err
				}
			}
			br := bufio.NewReader(&buf)
			if _, err := protocol.ReadRequest(br); err != nil {
				return 0, 0, err
			}
			for range reps[i] {
				if _, err := protocol.ReadReply(br); err != nil {
					return 0, 0, err
				}
			}
		}
	}
	elapsed := time.Since(start)
	var total int
	for i := range reqs {
		buf.Reset()
		protocol.WriteRequest(&buf, reqs[i])
		for _, rep := range reps[i] {
			protocol.WriteReply(&buf, rep)
		}
		total += buf.Len()
	}
	calls := float64(rounds * len(reqs))
	return float64(elapsed.Nanoseconds()) / calls, float64(total) / float64(len(reqs)), nil
}

// dbLookups times the accessors behind the point lookups under the shared
// lock and returns ns per lookup.
func dbLookups(d *db.DB, k *keys) float64 {
	p := newPicker(k, 7)
	type probe struct{ login, uid, mach, label, list string }
	probes := make([]probe, 5000)
	for i := range probes {
		probes[i] = probe{p.pick(k.logins), p.pick(k.uids), p.pick(k.machines), p.pick(k.labels), p.pick(k.lists)}
	}
	d.LockShared()
	defer d.UnlockShared()
	start := time.Now()
	n := 0
	for rounds := 0; rounds < 3 || time.Since(start) < 200*time.Millisecond; rounds++ {
		for _, pr := range probes {
			uid, _ := strconv.Atoi(pr.uid)
			d.UserByLogin(pr.login)
			d.UsersByUID(uid)
			d.MachineByName(pr.mach)
			d.FilesysByLabel(pr.label)
			d.ListByName(pr.list)
			n += 5
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// rpcAllocs counts heap allocations per serial get_user_by_login round
// trip, client and server together (both run in this process). It takes
// the smallest count over several windows, so a window that a background
// goroutine allocated in does not count: the figure repeats exactly and
// is compared as a count.
func rpcAllocs(c *client.Client, login string) (float64, float64, error) {
	const window = 256
	call := func() error {
		return c.Query("get_user_by_login", []string{login}, func([]string) error { return nil })
	}
	for i := 0; i < window; i++ {
		if err := call(); err != nil {
			return 0, 0, err
		}
	}
	best, bestBytes := -1.0, 0.0
	var before, after runtime.MemStats
	for w := 0; w < 8; w++ {
		runtime.ReadMemStats(&before)
		for i := 0; i < window; i++ {
			if err := call(); err != nil {
				return 0, 0, err
			}
		}
		runtime.ReadMemStats(&after)
		n := float64(after.Mallocs-before.Mallocs) / window
		if best < 0 || n < best {
			best = n
			bestBytes = float64(after.TotalAlloc-before.TotalAlloc) / window
		}
	}
	return best, bestBytes, nil
}

// ensureSelf creates the benchmark-owned account in a database and KDC.
func ensureSelf(d *db.DB, kdc *kerberos.KDC) error {
	if !kdc.Exists(selfLogin) {
		if err := kdc.AddPrincipal(selfLogin, selfPw); err != nil {
			return err
		}
	}
	d.LockShared()
	_, ok := d.UserByLogin(selfLogin)
	d.UnlockShared()
	if ok {
		return nil
	}
	cx := &queries.Context{DB: d, Privileged: true, App: benchApp}
	return queries.Execute(cx, "add_user", []string{selfLogin, queries.UniqueUID, "/bin/csh", "Self", "Bench", "", "1", "", "STAFF"}, nil)
}

// journalPerCommit runs the self-service mutation and one 64-item batch
// against a scratch database whose journal writer has the production
// sync policy, and returns the journal.* counters per commit.
func journalPerCommit() (float64, float64, error) {
	dir, err := os.MkdirTemp("", "perfbench-journal-*")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	d := queries.NewBootstrappedDB(clock.System)
	jw, err := db.OpenJournalWriter(filepath.Join(dir, "journal"), db.JournalOptions{})
	if err != nil {
		return 0, 0, err
	}
	defer jw.Close()
	reg := stats.NewRegistry()
	jw.BindStats(reg)
	priv := &queries.Context{DB: d, Privileged: true, App: benchApp}
	if err := queries.Execute(priv, "add_user", []string{selfLogin, queries.UniqueUID, "/bin/csh", "Self", "Bench", "", "1", "", "STAFF"}, nil); err != nil {
		return 0, 0, err
	}
	d.SetJournal(jw)
	before := reg.Snapshot()
	cx := &queries.Context{DB: d, Principal: selfLogin, App: benchApp}
	cx.ResolveUser()
	commits := 0
	for i := 0; i < 64; i++ {
		if err := queries.Execute(cx, "update_user_shell", []string{selfLogin, "/bin/pbj" + strconv.Itoa(i)}, nil); err != nil {
			return 0, 0, err
		}
		commits++
	}
	var items []protocol.BatchItem
	for j := 0; j < batchHalf; j++ {
		items = append(items, protocol.BatchItem{Name: "add_machine", Args: []string{fmt.Sprintf("PBJ%d.MIT.EDU", j), "VAX"}})
	}
	for j := 0; j < batchHalf; j++ {
		items = append(items, protocol.BatchItem{Name: "delete_machine", Args: []string{items[j].Args[0]}})
	}
	codes, err := queries.ExecuteBatch(priv, items)
	if err != nil {
		return 0, 0, err
	}
	for _, c := range codes {
		if c != mrerr.Success {
			return 0, 0, fmt.Errorf("journal batch item: %v", c)
		}
	}
	commits++
	delta := reg.Snapshot().Delta(before)
	return float64(delta.Counters["journal.syncs"]) / float64(commits),
		float64(delta.Counters["journal.bytes"]) / float64(commits), nil
}

// replicaLag measures, for a run of self-service writes on a primary, the
// time from the write's acknowledgement until the replica's reported
// position covers its token. The update workload uses its own pair; the
// others open a pair from a snapshot of env.sideDB, or of their database.
func replicaLag(env *layerEnv) (float64, error) {
	pr := env.pair
	if pr == nil {
		src := env.side()
		if err := ensureSelf(src, env.kdc); err != nil {
			return 0, err
		}
		key, err := env.kdc.Srvtab(core.MoiraServicePrincipal)
		if err != nil {
			return 0, err
		}
		ver := kerberos.NewVerifier(core.MoiraServicePrincipal, key, env.clk)
		probe := func(addr string) (string, error) { return selfWrite(env, addr, "/bin/csh") }
		if pr, err = openPair(src, ver, probe); err != nil {
			return 0, err
		}
		defer pr.close()
	}
	c, err := client.DialTimeout(pr.prim.clientAddr, 10*time.Second, env.clk)
	if err != nil {
		return 0, err
	}
	defer c.Disconnect()
	creds, err := env.kdc.GetTicket(selfLogin, selfPw, core.MoiraServicePrincipal)
	if err != nil {
		return 0, err
	}
	if err := c.Auth(creds, benchApp); err != nil {
		return 0, err
	}
	var lags []float64
	for i := 0; i < 200; i++ {
		if err := c.Query("update_user_shell", []string{selfLogin, "/bin/pbr" + strconv.Itoa(i)}, nil); err != nil {
			return 0, err
		}
		d, ok := pr.waitCovered(c.LastToken(), 10*time.Second)
		if !ok {
			return 0, fmt.Errorf("replica never covered %s", c.LastToken())
		}
		lags = append(lags, us(d))
	}
	return median(lags), nil
}

// selfWrite dials addr as the benchmark-owned account, sets its shell and
// returns the write's position token.
func selfWrite(env *layerEnv, addr, shell string) (string, error) {
	c, err := client.DialTimeout(addr, 10*time.Second, env.clk)
	if err != nil {
		return "", err
	}
	defer c.Disconnect()
	creds, err := env.kdc.GetTicket(selfLogin, selfPw, core.MoiraServicePrincipal)
	if err != nil {
		return "", err
	}
	if err := c.Auth(creds, benchApp); err != nil {
		return "", err
	}
	if err := c.Query("update_user_shell", []string{selfLogin, shell}, nil); err != nil {
		return "", err
	}
	return c.LastToken(), nil
}

// installKinds names the host kind each service's bundle installs on.
var installKinds = map[string]string{"HESIOD": "hesiod", "NFS": "nfs", "SMTP": "mailhub", "ZEPHYR": "zephyr"}

// genLayers builds, renders, tars and chunks every service's extract from
// env.side(), then pushes each bundle to a fresh update
// agent running that host kind's installer, and pushes it again: the
// second push is the idempotent re-install of section 5.9.
func genLayers(r *run, env *layerEnv) error {
	dir, err := os.MkdirTemp("", "perfbench-agents-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	const updSvc = "perfbench.update"
	if !env.kdc.Exists(updSvc) {
		if err := env.kdc.AddPrincipal(updSvc, "pb-update"); err != nil {
			return err
		}
	}
	updKey, err := env.kdc.Srvtab(updSvc)
	if err != nil {
		return err
	}
	creds, err := env.kdc.GetTicket(selfLogin, selfPw, updSvc)
	if err != nil {
		return err
	}
	var pushes []float64
	for _, svc := range services {
		inc := gen.Incrementals[svc]
		d := env.side()
		d.LockShared()
		t := time.Now()
		model, err := inc.Build(d)
		build := time.Since(t)
		var srv db.Server
		if s, ok := d.ServerByName(svc); ok {
			srv = *s
		}
		d.UnlockShared()
		if err != nil {
			return err
		}
		r.layerMetric("gen.build_s."+svc, build.Seconds(), "s")
		var res *gen.Result
		render, err := timeIt(3, func() (err error) {
			res, err = gen.FromModel(model)
			return err
		})
		if err != nil {
			return err
		}
		r.layerMetric("gen.render_ms."+svc, float64(render.Microseconds())/1e3, "ms")
		files := model.Files()
		tarT, err := timeIt(3, func() error {
			_, err := update.BuildTar(files)
			return err
		})
		if err != nil {
			return err
		}
		bundle, host := res.Common, "PB-"+svc+".MIT.EDU"
		if bundle == nil {
			hosts := make([]string, 0, len(res.PerHost))
			for h := range res.PerHost {
				hosts = append(hosts, h)
			}
			sort.Strings(hosts)
			host = hosts[0]
			bundle = res.PerHost[host]
		}
		chunkT, _ := timeIt(3, func() error {
			update.SplitChunks(bundle)
			return nil
		})
		r.layerMetric("update.tar_ms."+svc, float64(tarT.Microseconds())/1e3, "ms")
		r.layerMetric("update.chunk_ms."+svc, float64(chunkT.Microseconds())/1e3, "ms")

		kind := installKinds[svc]
		a := update.NewAgent(host, filepath.Join(dir, kind), kerberos.NewVerifier(updSvc, updKey, env.clk))
		if err := os.MkdirAll(filepath.Join(dir, kind), 0o755); err != nil {
			return err
		}
		switch kind {
		case "hesiod":
			hesiod.AttachToAgent(a, hesiod.NewServer())
		case "nfs":
			nfshost.AttachToAgent(a, nfshost.NewHost(host))
		case "mailhub":
			mailhub.AttachToAgent(a, mailhub.NewHub())
		case "zephyr":
			zephyr.AttachToAgent(a, zephyr.NewBroker(clock.System))
		}
		addr, err := a.Listen("127.0.0.1:0")
		if err != nil {
			return err
		}
		push := func() (time.Duration, error) {
			ps := &update.Push{
				Addr: addr.String(), Target: srv.TargetFile, Data: bundle,
				Script: dcm.DefaultScripts[svc](&srv, host, bundle), Creds: creds,
				Clock: env.clk, Timeout: time.Minute, Chunked: true,
			}
			t := time.Now()
			err := ps.Run()
			return time.Since(t), err
		}
		first, err := push()
		if err != nil {
			a.Close()
			return fmt.Errorf("push %s: %w", svc, err)
		}
		pushes = append(pushes, float64(first.Microseconds())/1e3)
		var again []float64
		for k := 0; k < 3; k++ {
			d, err := push()
			if err != nil {
				a.Close()
				return fmt.Errorf("re-push %s: %w", svc, err)
			}
			again = append(again, float64(d.Microseconds())/1e3)
		}
		a.Close()
		r.layerMetric("update.install_ms."+kind, median(again), "ms")
	}
	if len(env.dcmStats) > 0 {
		var lat []float64
		for _, st := range env.dcmStats {
			s := st.PushLatency.Snapshot()
			if s.N > 0 {
				lat = append(lat, float64(s.Sum.Microseconds())/1e3/float64(s.N))
			}
		}
		r.layerMetric("update.push_ms", median(lat), "ms")
	} else {
		r.layerMetric("update.push_ms", median(pushes), "ms")
	}
	return nil
}

// dcmCounts records the DCM pass counters: per fleet pass medians on the
// dcm workload, zero where the workload runs no DCM pass.
func dcmCounts(r *run, passes []*dcm.CycleStats) {
	perPass := func(f func(*dcm.CycleStats) int) float64 {
		if len(passes) == 0 {
			return 0
		}
		var xs []float64
		for _, st := range passes {
			xs = append(xs, float64(f(st)))
		}
		return median(xs)
	}
	r.layerMetric("extract.records_per_pass", perPass(func(s *dcm.CycleStats) int { return s.DeltaRecords }), "count")
	r.layerMetric("extract.keys_per_pass", perPass(func(s *dcm.CycleStats) int { return s.DeltaKeys }), "count")
	r.layerMetric("dcm.delta_builds", perPass(func(s *dcm.CycleStats) int { return s.DeltaBuilds }), "count")
	r.layerMetric("dcm.full_builds", perPass(func(s *dcm.CycleStats) int { return s.FullBuilds }), "count")
	r.layerMetric("dcm.fallbacks", perPass(func(s *dcm.CycleStats) int { return s.Fallbacks }), "count")
	r.layerMetric("update.bytes_reused", perPass(func(s *dcm.CycleStats) int { return s.BytesSkipped }), "B")
}
