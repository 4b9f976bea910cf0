package main

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"moira/internal/client"
	"moira/internal/clock"
	"moira/internal/core"
	"moira/internal/db"
	"moira/internal/kerberos"
	"moira/internal/mrerr"
	"moira/internal/protocol"
	"moira/internal/queries"
	"moira/internal/replica"
	"moira/internal/server"
	"moira/internal/stats"
	"moira/internal/trace"
	"moira/internal/workload"
)

const (
	updateUsers = 10000
	selfUsers   = 64
	bulkEvery   = 8  // every bulkEvery-th session is an admin bulk session
	batchHalf   = 32 // add_machine items (and as many delete_machine items) per batch
)

// node is one failover cluster member: the cluster and its query server.
type node struct {
	root       string
	clientAddr string
	cl         *replica.Cluster
	srv        *server.Server
	reg        *stats.Registry
}

func (n *node) close() {
	n.srv.Close()
	n.cl.Close()
}

// pair is a two-node failover cluster: a primary loaded from a checkpoint
// snapshot and a replica that bootstraps from it.
type pair struct {
	dir       string
	prim, rep *node
}

func (p *pair) close() {
	p.rep.close()
	p.prim.close()
	os.RemoveAll(p.dir)
}

// freeAddr reserves a loopback port for a node to bind.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// clusterLog returns the cluster log sink: standard error when
// PERFBENCH_LOG is set, otherwise nothing.
func clusterLog(node string) func(string, ...any) {
	if os.Getenv("PERFBENCH_LOG") == "" {
		return nil
	}
	return func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "["+node+"] "+format+"\n", args...)
	}
}

// openNode opens one cluster node on root with production lease and
// journal settings and a query server wired to it.
func openNode(root, replAddr, clientAddr, peer string, ver *kerberos.Verifier) (*node, error) {
	n := &node{root: root, clientAddr: clientAddr, reg: stats.NewRegistry()}
	tr := trace.New(trace.Options{Process: "moirad", Stats: n.reg})
	var onRole atomic.Value // func(role string, readonly bool)
	cl, info, err := replica.OpenCluster(replica.ClusterConfig{
		Root:            root,
		ListenRepl:      replAddr,
		AdvertiseClient: clientAddr,
		Peers:           []string{peer},
		Logf:            clusterLog(replAddr),
		Stats:           n.reg,
		Tracer:          tr,
		OnRole: func(role string, readonly bool) {
			if f, ok := onRole.Load().(func(string, bool)); ok {
				f(role, readonly)
			}
		},
	})
	if err != nil {
		return nil, err
	}
	if len(info.Fsck) > 0 {
		cl.Close()
		return nil, fmt.Errorf("node %s: fsck: %v", root, info.Fsck)
	}
	n.cl = cl
	n.srv = server.New(server.Config{
		DB: cl.DB(), Verifier: ver, Stats: n.reg, Tracer: tr,
		ReadOnly: true, Failover: cl,
	})
	if _, err := n.srv.Listen(clientAddr); err != nil {
		cl.Close()
		return nil, err
	}
	onRole.Store(func(role string, readonly bool) { n.srv.SetReadOnly(readonly) })
	cl.Start()
	return n, nil
}

// openPair snapshots d into a fresh primary data directory, promotes that
// node, and boots an empty replica that bootstraps from it. It returns
// once the replica follows the primary and a probe write run by probe
// has passed the semi-synchronous commit gate.
func openPair(d *db.DB, ver *kerberos.Verifier, probe func(addr string) (string, error)) (*pair, error) {
	dir, err := os.MkdirTemp("", "perfbench-pair-*")
	if err != nil {
		return nil, err
	}
	p := &pair{dir: dir}
	fail := func(err error) (*pair, error) {
		if p.rep != nil {
			p.rep.close()
		}
		if p.prim != nil {
			p.prim.close()
		}
		os.RemoveAll(dir)
		return nil, err
	}
	rootA, rootB := filepath.Join(dir, "a"), filepath.Join(dir, "b")
	dd, err := db.OpenDataDir(rootA)
	if err != nil {
		return fail(err)
	}
	store, err := db.NewCheckpointStore(dd.SnapshotsDir(), 0)
	if err != nil {
		return fail(err)
	}
	// The snapshot names journal segment 1, the first one the promoted
	// node's fresh journal writes, as the first segment postdating it: a
	// replica refuses to bootstrap from a snapshot naming none.
	if _, err := store.Take(d, func() (int64, error) { return 1, nil }); err != nil {
		return fail(err)
	}
	var addrs [4]string
	for i := range addrs {
		if addrs[i], err = freeAddr(); err != nil {
			return fail(err)
		}
	}
	if p.prim, err = openNode(rootA, addrs[0], addrs[1], addrs[2], ver); err != nil {
		return fail(err)
	}
	if err := p.prim.cl.ForcePromote(benchApp); err != nil {
		return fail(err)
	}
	if p.rep, err = openNode(rootB, addrs[2], addrs[3], addrs[0], ver); err != nil {
		return fail(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		if p.rep.cl.Role() == replica.RoleReplica && p.prim.cl.Role() == replica.RolePrimary {
			token, err := probe(p.prim.clientAddr)
			gated := p.prim.reg.Snapshot().Counters["repl.commit.gated"] > 0
			if err == nil && gated && p.covered(token) {
				return p, nil
			}
		}
		if time.Now().After(deadline) {
			return fail(fmt.Errorf("pair did not settle: primary %s, replica %+v",
				p.prim.cl.Role(), p.rep.cl.Whois()))
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// covered reports whether the replica's applied position covers token.
func (p *pair) covered(token string) bool {
	pos, ok := protocol.ParsePos(token)
	if !ok || token == "" {
		return false
	}
	w := p.rep.cl.Whois()
	return pos.Covers(w.Seg, w.Idx)
}

// waitCovered spins until the replica covers token and returns how long
// that took, or false after timeout.
func (p *pair) waitCovered(token string, timeout time.Duration) (time.Duration, bool) {
	t := time.Now()
	for !p.covered(token) {
		if time.Since(t) > timeout {
			return 0, false
		}
		time.Sleep(20 * time.Microsecond)
	}
	return time.Since(t), true
}

// updateSys is the assembled system of the update workload.
type updateSys struct {
	kdc       *kerberos.KDC
	pair      *pair
	adminPw   string
	users     []string // self-service logins, each a Kerberos principal
	passwords map[string]string
	reader    *client.Client // connection B, on the replica
	keys      *keys
	populateS float64
}

func (u *updateSys) close() {
	if u.reader != nil {
		u.reader.Disconnect()
	}
	if u.pair != nil {
		u.pair.close()
	}
}

func (u *updateSys) dial(addr, login string) (*client.Client, error) {
	c, err := client.DialTimeout(addr, 10*time.Second, nil)
	if err != nil {
		return nil, err
	}
	creds, err := u.kdc.GetTicket(login, u.passwords[login], core.MoiraServicePrincipal)
	if err == nil {
		err = c.Auth(creds, benchApp)
	}
	if err != nil {
		c.Disconnect()
		return nil, err
	}
	return c, nil
}

// seedAccounts creates the admin account and the self-service principals
// on a populated database and KDC.
func seedAccounts(d *db.DB, kdc *kerberos.KDC, admin, adminPw string, users []string, pw map[string]string) error {
	cx := &queries.Context{DB: d, Privileged: true, App: benchApp}
	nop := func([]string) error { return nil }
	if err := queries.Execute(cx, "add_user", []string{admin, queries.UniqueUID, "/bin/csh", "Admin", "Bench", "", "1", "", "STAFF"}, nop); err != nil {
		return err
	}
	if err := queries.Execute(cx, "add_member_to_list", []string{queries.AdminList, "USER", admin}, nop); err != nil {
		return err
	}
	if err := kdc.AddPrincipal(admin, adminPw); err != nil {
		return err
	}
	for _, u := range users {
		if err := kdc.AddPrincipal(u, pw[u]); err != nil {
			return err
		}
	}
	return nil
}

func buildUpdate(seed int64) (*updateSys, error) {
	u := &updateSys{
		kdc:       kerberos.NewKDC("ATHENA.MIT.EDU", clock.System),
		adminPw:   "pb-admin-" + strconv.FormatInt(seed, 10),
		passwords: map[string]string{},
	}
	if err := u.kdc.AddPrincipal(core.MoiraServicePrincipal, "pb-server-"+strconv.FormatInt(seed, 10)); err != nil {
		return nil, err
	}
	key, err := u.kdc.Srvtab(core.MoiraServicePrincipal)
	if err != nil {
		return nil, err
	}
	ver := kerberos.NewVerifier(core.MoiraServicePrincipal, key, clock.System)

	d := queries.NewBootstrappedDB(clock.System)
	cfg := workload.Scaled(updateUsers)
	cfg.Seed = seed
	t := time.Now()
	if _, _, err := workload.Populate(d, cfg); err != nil {
		return nil, err
	}
	u.populateS = time.Since(t).Seconds()
	u.keys = loadKeys(d, seed)
	u.users = append([]string(nil), u.keys.logins[:selfUsers]...)
	u.passwords[adminLogin] = u.adminPw
	for i, l := range u.users {
		u.passwords[l] = "pb-user-" + strconv.Itoa(i)
	}
	if err := seedAccounts(d, u.kdc, adminLogin, u.adminPw, u.users, u.passwords); err != nil {
		return nil, err
	}
	probe := func(addr string) (string, error) {
		c, err := u.dial(addr, adminLogin)
		if err != nil {
			return "", err
		}
		defer c.Disconnect()
		if err := c.Query("update_user_shell", []string{adminLogin, "/bin/csh"}, nil); err != nil {
			return "", err
		}
		return c.LastToken(), nil
	}
	if u.pair, err = openPair(d, ver, probe); err != nil {
		return nil, err
	}
	if u.reader, err = u.dial(u.pair.rep.clientAddr, adminLogin); err != nil {
		u.close()
		return nil, err
	}
	return u, nil
}

// journalBytes sums the sizes of a node's journal segments.
func journalBytes(root string) (int64, error) {
	dd, err := db.OpenDataDir(root)
	if err != nil {
		return 0, err
	}
	segs, err := dd.Segments()
	if err != nil {
		return 0, err
	}
	var n int64
	for _, s := range segs {
		fi, err := os.Stat(s.Path)
		if err != nil {
			return 0, err
		}
		n += fi.Size()
	}
	return n, nil
}

func runUpdate(r *run) error {
	u, setupS, err := setupMedian(func() (*updateSys, error) { return buildUpdate(r.seed) }, (*updateSys).close)
	if err != nil {
		return err
	}
	defer u.close()
	heap := liveHeapMB()
	jb0, err := journalBytes(u.pair.prim.root)
	if err != nil {
		return err
	}

	var spans *spanLog
	if r.trace {
		spans = &spanLog{}
	}
	rng := rand.New(rand.NewSource(r.seed))
	last := map[string][2]string{} // login -> {shell, fullname} last written
	var connLat, writeLat, rywLat []float64
	var batchItems int
	var batchTime time.Duration
	var machines []string
	commits := 0
	primAddr := u.pair.prim.clientAddr
	deadline := time.Now().Add(r.seconds)
	// Runs attempt whole rounds of bulkEvery sessions.
	for s := 0; s == 0 || s%bulkEvery != 0 || time.Now().Before(deadline); s++ {
		if s%bulkEvery == bulkEvery-1 {
			c, err := u.dial(primAddr, adminLogin)
			if !r.op("bulk connect", err) {
				continue
			}
			items := make([]client.BatchItem, 0, 2*batchHalf)
			for j := 0; j < batchHalf; j++ {
				name := fmt.Sprintf("PBB%d-%d.MIT.EDU", s, j)
				machines = append(machines, name)
				items = append(items, client.BatchItem{Name: "add_machine", Args: []string{name, "VAX"}})
			}
			for j := 0; j < batchHalf; j++ {
				items = append(items, client.BatchItem{Name: "delete_machine", Args: []string{items[j].Args[0]}})
			}
			t := time.Now()
			codes, err := c.Batch(items)
			spans.add("rpc.batch", t)
			d := time.Since(t)
			c.Disconnect()
			if !r.op("batch", err) {
				continue
			}
			commits++
			batchItems += len(items)
			batchTime += d
			for i, code := range codes {
				r.attempted.Add(1)
				if code != mrerr.Success {
					r.failed.Add(1)
					r.logOnce("batch item %s %v: %v", items[i].Name, items[i].Args, code)
				}
			}
			continue
		}
		login := u.users[rng.Intn(len(u.users))]
		t := time.Now()
		c, err := u.dial(primAddr, login)
		spans.add("session.connect", t)
		if !r.op("connect "+login, err) {
			continue
		}
		connLat = append(connLat, us(time.Since(t)))
		val := fmt.Sprintf("pb%d-%d", r.seed, s)
		prev := last[login]
		var wc call
		if s%2 == 0 {
			wc = call{"update_user_shell", []string{login, "/bin/" + val}}
			prev[0] = "/bin/" + val
		} else {
			wc = call{"update_finger_by_login", []string{login, "PB " + val, "", "", "", "", "", "", ""}}
			prev[1] = "PB " + val
		}
		t = time.Now()
		err = c.Query(wc.name, wc.args, nil)
		spans.add("rpc.write", t)
		d := time.Since(t)
		token := c.LastToken()
		c.Disconnect()
		if !r.op(wc.name, err) {
			continue
		}
		commits++
		writeLat = append(writeLat, us(d))
		last[login] = prev

		u.reader.SetMinPos(token)
		rc := call{"get_user_by_login", []string{login}}
		field, want := 2, prev[0]
		if s%2 == 1 {
			rc, field, want = call{"get_finger_by_login", []string{login}}, 1, prev[1]
		}
		t = time.Now()
		tuples, err := u.reader.QueryAll(rc.name, rc.args...)
		spans.add("rpc.ryw", t)
		d = time.Since(t)
		if !r.op(rc.name, err) {
			continue
		}
		rywLat = append(rywLat, us(d))
		if msg := checkShape(rc, tuples); msg != "" {
			r.wrong("replica %s %s: %s", rc.name, login, msg)
		} else if tuples[0][field] != want {
			r.wrong("replica %s %s: read %q, just wrote %q", rc.name, login, tuples[0][field], want)
		}
	}
	if len(writeLat) == 0 || len(connLat) == 0 || len(rywLat) == 0 || batchItems == 0 {
		return fmt.Errorf("update: no complete session")
	}
	jb1, err := journalBytes(u.pair.prim.root)
	if err != nil {
		return err
	}
	u.checkFinal(r, last, machines)
	fmt.Printf("# update: %d writes, %d batch items, %d commits\n", len(writeLat), batchItems, commits)
	r.report("setup_s", "setup_s", setupS, "s")
	r.report("heap_mb", "heap_mb", heap, "MB")
	r.report("rate_per_s", "batch_items_per_s", float64(batchItems)/batchTime.Seconds(), "1/s")
	r.report("lat_a_us", "write_p50_us", median(writeLat), "us")
	r.report("lat_b_us", "connect_auth_p50_us", median(connLat), "us")
	r.report("lat_c_us", "ryw_p50_us", median(rywLat), "us")
	r.report("bytes_per_op", "journal_bytes_per_commit", float64(jb1-jb0)/float64(commits), "B")
	if !r.trace {
		return nil
	}
	env := &layerEnv{
		d: u.pair.prim.cl.DB(), kdc: u.kdc, addr: primAddr,
		adminPw: u.adminPw, keys: u.keys, seed: r.seed, clk: clock.System,
		populateS: u.populateS, setupS: setupS, spans: spans,
		pair: u.pair,
	}
	return measureLayers(r, env)
}

// checkFinal compares both nodes with the benchmark's map of each
// self-service user's last write, and checks that no batch machine
// survived, once the replica has caught up with the primary.
func (u *updateSys) checkFinal(r *run, last map[string][2]string, machines []string) {
	c, err := u.dial(u.pair.prim.clientAddr, adminLogin)
	if err != nil {
		r.wrong("final check: %v", err)
		return
	}
	err = c.Query("update_user_shell", []string{adminLogin, "/bin/csh"}, nil)
	token := c.LastToken()
	c.Disconnect()
	if err != nil {
		r.wrong("final check write: %v", err)
		return
	}
	if _, ok := u.pair.waitCovered(token, 30*time.Second); !ok {
		r.wrong("replica never covered the final write %s", token)
		return
	}
	for _, n := range []*node{u.pair.prim, u.pair.rep} {
		d := n.cl.DB()
		d.LockShared()
		for login, want := range last {
			usr, ok := d.UserByLogin(login)
			switch {
			case !ok:
				r.wrong("%s: user %s missing", n.root, login)
			case want[0] != "" && usr.Shell != want[0]:
				r.wrong("%s: %s shell %q, last written %q", n.root, login, usr.Shell, want[0])
			case want[1] != "" && usr.Fullname != want[1]:
				r.wrong("%s: %s finger %q, last written %q", n.root, login, usr.Fullname, want[1])
			}
		}
		for _, m := range machines {
			if _, ok := d.MachineByName(m); ok {
				r.wrong("%s: batch machine %s remains", n.root, m)
			}
		}
		d.UnlockShared()
	}
}
