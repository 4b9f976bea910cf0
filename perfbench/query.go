package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"moira/internal/client"
	"moira/internal/clock"
	"moira/internal/core"
	"moira/internal/queries"
	"moira/internal/workload"
)

const (
	queryUsers    = 100000
	queryMarkers  = 32
	pipelineDepth = 8
	markerEvery   = 16 // one request in markerEvery targets a marker key
	benchApp      = "perfbench"
	adminLogin    = "pbadmin"
	skipField     = "\x00" // expected-tuple placeholder for the modtime field
)

// markerSet is the rows the benchmark added itself, with the tuples each
// request on them must return, computed from the benchmark's own inputs.
type markerSet struct {
	users    []string // logins
	expected map[string][][]string
}

func reqKey(c call) string { return c.name + "\x01" + strings.Join(c.args, "\x01") }

// marker returns the i-th marker request of the given handle.
func (m *markerSet) marker(handle string, i int) call {
	i %= len(m.users)
	login := m.users[i]
	switch handle {
	case "get_user_by_login", "get_pobox":
		return call{handle, []string{login}}
	case "get_user_by_uid":
		return call{handle, []string{strconv.Itoa(markerUID + i)}}
	case "get_machine":
		return call{handle, []string{markerMachine(i)}}
	case "get_filesys_by_label":
		return call{handle, []string{markerFS(i)}}
	case "get_lists_of_member":
		return call{handle, []string{"USER", login}}
	case "get_members_of_list":
		return call{handle, []string{markerList(i)}}
	default: // a wildcard on the marker's login prefix
		return call{"get_user_by_login", []string{prefixOf(login) + "*"}}
	}
}

const markerUID = 880000

func markerMachine(i int) string { return fmt.Sprintf("PBM%d.MIT.EDU", i) }
func markerFS(i int) string      { return fmt.Sprintf("pbm-fs-%d", i) }
func markerList(i int) string    { return fmt.Sprintf("pbm-list-%d", i) }

// addMarkers creates the marker rows through the public query handles and
// records the tuples each must read back as. Marker logins start with the
// prefixes of population logins, so a wildcard on a marker's prefix also
// returns population users.
func addMarkers(dc *client.Direct, k *keys) (*markerSet, error) {
	m := &markerSet{expected: map[string][][]string{}}
	n := queryMarkers
	for i := 0; i < n; i++ {
		m.users = append(m.users, prefixOf(k.logins[i])+"pbm"+strconv.Itoa(i))
	}
	run := func(name string, args ...string) error {
		if err := dc.Query(name, args, nil); err != nil {
			return fmt.Errorf("marker %s %v: %w", name, args, err)
		}
		return nil
	}
	for i, login := range m.users {
		shell := "/bin/pbsh" + strconv.Itoa(i)
		first := "Pb" + strconv.Itoa(i)
		mitid := "pbm" + strconv.Itoa(i)
		if err := run("add_user", login, strconv.Itoa(markerUID+i), shell, "Marker", first, "Q", "1", mitid, "STAFF"); err != nil {
			return nil, err
		}
		if err := run("set_pobox", login, "POP", "ATHENA-PO-1.MIT.EDU"); err != nil {
			return nil, err
		}
		if err := run("add_machine", markerMachine(i), "VAX"); err != nil {
			return nil, err
		}
		if err := run("add_list", markerList(i), "1", "0", "0", "0", "0", "-1", "NONE", "NONE", "perfbench marker"); err != nil {
			return nil, err
		}
		user := []string{login, strconv.Itoa(markerUID + i), shell, "Marker", first, "Q", "1", mitid, "STAFF", skipField, "root", benchApp}
		m.expected[reqKey(m.marker("get_user_by_login", i))] = [][]string{user}
		m.expected[reqKey(m.marker("get_user_by_uid", i))] = [][]string{user}
		m.expected[reqKey(m.marker("get_pobox", i))] = [][]string{{login, "POP", "ATHENA-PO-1.MIT.EDU", skipField, "root", benchApp}}
		m.expected[reqKey(m.marker("get_machine", i))] = [][]string{{markerMachine(i), "VAX", skipField, "root", benchApp}}
	}
	// List i holds users i and i+1; user i is on lists i-1 and i.
	for i := 0; i < n; i++ {
		a, b := m.users[i], m.users[(i+1)%n]
		for _, u := range []string{a, b} {
			if err := run("add_member_to_list", markerList(i), "USER", u); err != nil {
				return nil, err
			}
		}
		members := [][]string{{"USER", a}, {"USER", b}}
		sortTuples(members)
		m.expected[reqKey(m.marker("get_members_of_list", i))] = members
		if err := run("add_filesys", markerFS(i), "NFS", "FS-01.MIT.EDU", "/u1/"+markerFS(i), "/mit/"+markerFS(i),
			"w", "perfbench marker", a, markerList(i), "1", "PROJECT"); err != nil {
			return nil, err
		}
		m.expected[reqKey(m.marker("get_filesys_by_label", i))] = [][]string{{markerFS(i), "NFS", "FS-01.MIT.EDU",
			"/u1/" + markerFS(i), "/mit/" + markerFS(i), "w", "perfbench marker", a, markerList(i), "1", "PROJECT",
			skipField, "root", benchApp}}
	}
	for i := 0; i < n; i++ {
		lists := [][]string{
			{markerList((i + n - 1) % n), "1", "0", "0", "0", "0"},
			{markerList(i), "1", "0", "0", "0", "0"},
		}
		sortTuples(lists)
		m.expected[reqKey(m.marker("get_lists_of_member", i))] = lists
	}
	return m, nil
}

func sortTuples(ts [][]string) {
	sort.Slice(ts, func(i, j int) bool { return strings.Join(ts[i], "\x01") < strings.Join(ts[j], "\x01") })
}

// sameTuples compares a reply with expected tuples, ignoring order and
// the skipped fields.
func sameTuples(got, want [][]string) bool {
	if len(got) != len(want) {
		return false
	}
	g := append([][]string(nil), got...)
	sortTuples(g)
	for i := range want {
		if !sameTuple(g[i], want[i]) {
			return false
		}
	}
	return true
}

func sameTuple(got, want []string) bool {
	if len(got) != len(want) {
		return false
	}
	for j := range want {
		if want[j] != skipField && got[j] != want[j] {
			return false
		}
	}
	return true
}

// check verifies one query reply: shape always, exact fields for marker
// keys, and marker inclusion for wildcards.
func (m *markerSet) check(r *run, c call, tuples [][]string) {
	if msg := checkShape(c, tuples); msg != "" {
		r.wrong("%s %v: %s", c.name, c.args, msg)
		return
	}
	if want, ok := m.expected[reqKey(c)]; ok {
		if !sameTuples(tuples, want) {
			r.wrong("%s %v: got %v want %v", c.name, c.args, tuples, want)
		}
		return
	}
	if isWildcard(c) {
		prefix := strings.TrimSuffix(c.args[0], "*")
		for i, login := range m.users {
			if !strings.HasPrefix(login, prefix) {
				continue
			}
			want := m.expected[reqKey(m.marker("get_user_by_login", i))][0]
			found := false
			for _, t := range tuples {
				if t[0] == login {
					found = sameTuple(t, want)
					break
				}
			}
			if !found {
				r.wrong("%s %v: marker %s missing or wrong", c.name, c.args, login)
			}
		}
	}
}

// querySys is the assembled system of the query workload.
type querySys struct {
	sys       *core.System
	keys      *keys
	markers   *markerSet
	adminPw   string
	a         *client.Client
	b         *client.Pipeline
	populateS float64
}

func (q *querySys) close() {
	if q.a != nil {
		q.a.Disconnect()
	}
	if q.b != nil {
		q.b.Close()
	}
	q.sys.Close()
}

func buildQuery(seed int64) (*querySys, error) {
	sys, err := core.Boot(core.Options{})
	if err != nil {
		return nil, err
	}
	q := &querySys{sys: sys, adminPw: "pb-admin-" + strconv.FormatInt(seed, 10)}
	cfg := workload.Scaled(queryUsers)
	cfg.Seed = seed
	t := time.Now()
	if _, _, err := workload.Populate(sys.DB, cfg); err != nil {
		q.close()
		return nil, err
	}
	q.populateS = time.Since(t).Seconds()
	q.keys = loadKeys(sys.DB, seed)
	if err := sys.AddAccount(adminLogin, q.adminPw, "Bench", "Admin"); err != nil {
		q.close()
		return nil, err
	}
	if err := sys.Grant(adminLogin); err != nil {
		q.close()
		return nil, err
	}
	if q.markers, err = addMarkers(sys.Direct(benchApp), q.keys); err != nil {
		q.close()
		return nil, err
	}
	if q.a, err = sys.ClientAs(adminLogin, q.adminPw, benchApp); err != nil {
		q.close()
		return nil, err
	}
	if q.b, err = client.DialPipeline(sys.ServerAddr, 10*time.Second, nil); err != nil {
		q.close()
		return nil, err
	}
	creds, err := sys.KDC.GetTicket(adminLogin, q.adminPw, core.MoiraServicePrincipal)
	if err != nil {
		q.close()
		return nil, err
	}
	if err := q.b.Auth(creds, benchApp); err != nil {
		q.close()
		return nil, err
	}
	return q, nil
}

// next draws the next request for one connection: a mix request, or every
// markerEvery-th time the same kind of request on a marker key.
func (q *querySys) next(p *picker, n int) call {
	c := p.mix()
	if n%markerEvery == 0 {
		h := c.name
		if isWildcard(c) {
			h = "wildcard"
		}
		return q.markers.marker(h, p.rng.Intn(queryMarkers))
	}
	return c
}

func runQuery(r *run) error {
	q, setupS, err := setupMedian(func() (*querySys, error) { return buildQuery(r.seed) }, (*querySys).close)
	if err != nil {
		return err
	}
	defer q.close()
	heap := liveHeapMB()

	var spans *spanLog
	if r.trace {
		spans = &spanLog{}
	}
	var latA, latB []sample
	var bytesA float64
	var muB sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(r.seconds)
	wg.Add(1 + pipelineDepth)
	go func() {
		defer wg.Done()
		p := newPicker(q.keys, r.seed*1000+1)
		for n := 1; time.Now().Before(deadline); n++ {
			c := q.next(p, n)
			t := time.Now()
			tuples, err := q.a.QueryAll(c.name, c.args...)
			spans.add("rpc."+c.name, t)
			d := time.Since(t)
			if !r.op(c.name, err) {
				continue
			}
			latA = append(latA, sample{t.Sub(start), us(d)})
			for _, tu := range tuples {
				for _, f := range tu {
					bytesA += float64(len(f))
				}
			}
			q.markers.check(r, c, tuples)
		}
	}()
	for w := 0; w < pipelineDepth; w++ {
		go func(w int) {
			defer wg.Done()
			p := newPicker(q.keys, r.seed*1000+2+int64(w))
			var lat []sample
			for n := 1; time.Now().Before(deadline); n++ {
				c := q.next(p, n)
				var tuples [][]string
				t := time.Now()
				err := q.b.Query(c.name, c.args, func(tu []string) error {
					tuples = append(tuples, append([]string(nil), tu...))
					return nil
				})
				d := time.Since(t)
				if !r.op(c.name, err) {
					continue
				}
				lat = append(lat, sample{t.Sub(start), us(d)})
				q.markers.check(r, c, tuples)
			}
			muB.Lock()
			latB = append(latB, lat...)
			muB.Unlock()
		}(w)
	}
	wg.Wait()
	if len(latA) == 0 || len(latB) == 0 {
		return fmt.Errorf("query: no call completed")
	}
	fmt.Printf("# query: %d calls on A, %d on B in %v\n", len(latA), len(latB), r.seconds)
	r.report("setup_s", "setup_s", setupS, "s")
	r.report("heap_mb", "heap_mb", heap, "MB")
	r.report("rate_per_s", "query_ops_per_s", windowed(append(latA, latB...), time.Second, r.seconds, rate), "1/s")
	r.report("lat_a_us", "query_p50_us", windowed(latA, 2*time.Second, r.seconds, median), "us")
	r.report("lat_b_us", "query_p98_us", windowed(latA, 5*time.Second, r.seconds, p98), "us")
	r.report("lat_c_us", "pipelined_p50_us", windowed(latB, 2*time.Second, r.seconds, median), "us")
	r.report("bytes_per_op", "reply_bytes", bytesA/float64(len(latA)), "B")
	if !r.trace {
		return nil
	}
	env := &layerEnv{
		d: q.sys.DB, kdc: q.sys.KDC, addr: q.sys.ServerAddr,
		adminPw: q.adminPw, keys: q.keys, seed: r.seed, clk: clock.System,
		populateS: q.populateS, setupS: setupS, spans: spans,
	}
	// The layers this workload bypasses (replication, extract
	// generation, the update protocol) are timed on the update
	// workload's 10,000-user population of the same seed: a failover
	// pair cannot form from the 100,000-user database, since the
	// replica's bootstrap outlasts the primary's lease, and that
	// population's 200 NFS servers each get every user's credentials.
	env.sideDB = queries.NewBootstrappedDB(clock.System)
	cfg := workload.Scaled(updateUsers)
	cfg.Seed = r.seed
	if _, _, err := workload.Populate(env.sideDB, cfg); err != nil {
		return err
	}
	return measureLayers(r, env)
}
