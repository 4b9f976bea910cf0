package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"time"

	"moira/internal/client"
	"moira/internal/clock"
	"moira/internal/core"
	"moira/internal/db"
	"moira/internal/dcm"
	"moira/internal/gen"
	"moira/internal/hesiod"
	"moira/internal/workload"
)

const (
	// dcmUsers is the paper's section 5.1 scale. The first DCM pass
	// creates one home directory per user on the NFS hosts, and set-up
	// runs it three times per run.
	dcmUsers = 10000
	// churn is the mutations sent before each pass: 0.1% of 30,000
	// users, so that the bytes a pass pushes average over enough
	// changed records to repeat between seeds.
	churn = 30

	// fleetPasses is the number of fleet passes, and of generate-only
	// passes, in one round.
	fleetPasses = 4
)

// services are the DCM services the workload population defines.
var services = []string{"HESIOD", "NFS", "SMTP", "ZEPHYR"}

// serverHost is one managed host's DCM record, as update_server_host_info
// takes it back.
type serverHost struct {
	service, machine string
	v1, v2           int
	v3               string
}

// dcmSys is the assembled system of the dcm workload.
type dcmSys struct {
	sys       *core.System
	clk       *clock.Fake
	c         *client.Client // authenticated admin client for churn and host toggles
	adminPw   string
	residents []string // active population users churned in place
	hosts     []serverHost
	bootS     float64
	keys      *keys
}

func (s *dcmSys) close() {
	if s.c != nil {
		s.c.Disconnect()
	}
	s.sys.Close()
}

func dcmConfig(seed int64) workload.Config {
	cfg := workload.Scaled(dcmUsers)
	cfg.Seed = seed
	// The paper's absolute server counts: per-pass generation and
	// transfer cost is the subject, not push fan-out.
	cfg.NFSServers = 4
	cfg.Workstations = 1000
	cfg.MailLists = 1200
	return cfg
}

// buildDCM boots the system with its managed hosts' file trees under
// hostRoot. Every set-up of a run uses the same hostRoot, as a DCM
// restarted against the same hosts would: the directories the first
// set-up's installs created are there for the next, so set-up time is not
// dominated by creating and deleting ten thousand home directories on the
// shared disk. The caller removes hostRoot after the run.
func buildDCM(seed int64, hostRoot string) (*dcmSys, error) {
	s := &dcmSys{clk: clock.NewFake(time.Unix(600000000, 0)), adminPw: "pb-admin-" + strconv.FormatInt(seed, 10)}
	cfg := dcmConfig(seed)
	t := time.Now()
	sys, err := core.Boot(core.Options{Clock: s.clk, Workload: &cfg, DCMIncremental: true, HostRoot: hostRoot})
	if err != nil {
		return nil, err
	}
	s.bootS = time.Since(t).Seconds()
	s.sys = sys
	s.keys = loadKeys(sys.DB, seed)
	sys.DB.LockShared()
	for _, l := range s.keys.logins {
		if u, ok := sys.DB.UserByLogin(l); ok && u.Status == 1 {
			s.residents = append(s.residents, l)
		}
		if len(s.residents) == 4096 {
			break
		}
	}
	sys.DB.EachServerHost(func(sh *db.ServerHost) bool {
		if m, ok := sys.DB.MachineByID(sh.MachID); ok {
			s.hosts = append(s.hosts, serverHost{sh.Service, m.Name, sh.Value1, sh.Value2, sh.Value3})
		}
		return true
	})
	sys.DB.UnlockShared()
	if err := sys.AddAccount(adminLogin, s.adminPw, "Bench", "Admin"); err != nil {
		s.close()
		return nil, err
	}
	if err := sys.Grant(adminLogin); err != nil {
		s.close()
		return nil, err
	}
	if s.c, err = sys.ClientAs(adminLogin, s.adminPw, benchApp); err != nil {
		s.close()
		return nil, err
	}
	st, err := sys.RunDCM()
	if err != nil {
		s.close()
		return nil, err
	}
	if st.HostHardFails+st.HostSoftFails != 0 || st.HostsUpdated == 0 || st.HostsUpdated != st.HostsConsidered {
		s.close()
		return nil, fmt.Errorf("first pass: %s", st.Summary())
	}
	return s, nil
}

// churnState tracks what the benchmark last wrote, to check the hosts.
type churnState struct {
	n      int
	shells map[string]string // login -> shell the benchmark last set
	added  []string          // logins added since the last fleet check
}

// churn sends one pass's mutations through the authenticated client:
// add_user, update_user_shell and update_user_status in rotation.
func (s *dcmSys) churn(r *run, cs *churnState, seed int64) {
	for j := 0; j < churn; j++ {
		cs.n++
		pick := s.residents[cs.n%len(s.residents)]
		var c call
		switch j % 3 {
		case 0:
			login := fmt.Sprintf("pbc%dx%d", seed, cs.n)
			c = call{"add_user", []string{login, "-1", "/bin/csh", "Churn", "User", "", "1", "", "STAFF"}}
			cs.shells[login] = "/bin/csh"
			cs.added = append(cs.added, login)
			s.residents = append(s.residents, login)
		case 1:
			shell := fmt.Sprintf("/bin/pbc%d", cs.n)
			c = call{"update_user_shell", []string{pick, shell}}
			cs.shells[pick] = shell
		default:
			c = call{"update_user_status", []string{pick, "1"}}
		}
		r.op(c.name, s.c.Query(c.name, c.args, nil))
	}
}

// setHosts enables or disables every server host, as an operator would.
func (s *dcmSys) setHosts(r *run, enable bool) {
	e := "0"
	if enable {
		e = "1"
	}
	for _, h := range s.hosts {
		r.op("update_server_host_info", s.c.Query("update_server_host_info",
			[]string{h.service, h.machine, e, strconv.Itoa(h.v1), strconv.Itoa(h.v2), h.v3}, nil))
	}
}

// pass advances the clock so every service is due and runs one DCM pass.
func (s *dcmSys) pass(r *run, spans *spanLog, kind string) (*dcm.CycleStats, time.Duration) {
	s.clk.Advance(25 * time.Hour)
	t := time.Now()
	st, err := s.sys.RunDCM()
	spans.add("dcm."+kind, t)
	d := time.Since(t)
	if !r.op("dcm pass", err) {
		return nil, 0
	}
	if st.HostHardFails+st.HostSoftFails != 0 || st.GenHardErrors != 0 {
		r.wrong("%s pass: %s", kind, st.Summary())
	}
	return st, d
}

// checkHosts verifies the managed hosts after a fleet pass: hesiod serves
// every churned user's passwd entry with the shell last set, and users
// added since the last check appear on the NFS hosts and the mailhub.
func (s *dcmSys) checkHosts(r *run, cs *churnState) {
	for login, shell := range cs.shells {
		vals, ok := s.sys.Hesiod.Resolve(login + ".passwd")
		if !ok || len(vals) == 0 {
			r.wrong("hesiod: no passwd entry for %s", login)
			continue
		}
		pw, err := hesiod.ParsePasswd(vals[0])
		if err != nil || pw.Shell != shell {
			r.wrong("hesiod: %s passwd %q, shell last set %q", login, vals[0], shell)
		}
	}
	for _, login := range cs.added {
		for name, h := range s.sys.NFSHosts {
			if _, ok := h.CredentialOf(login); !ok {
				r.wrong("nfs host %s: no credentials for new user %s", name, login)
			}
		}
		if _, ok := s.sys.Mailhub.Finger(login); !ok {
			r.wrong("mailhub: no passwd entry for new user %s", login)
		}
	}
	cs.added = cs.added[:0]
}

// hostInstalls sums the NFS hosts' install counters.
func (s *dcmSys) hostInstalls() int {
	n := 0
	for _, h := range s.sys.NFSHosts {
		n += h.Installs()
	}
	return n
}

// renderAll renders every service's current planner model.
func (s *dcmSys) renderAll() (map[string]map[string][]byte, error) {
	out := map[string]map[string][]byte{}
	for _, svc := range services {
		m := s.sys.DCM.Planner().Model(svc)
		if m == nil {
			return nil, fmt.Errorf("%s: no planner model", svc)
		}
		res, err := gen.FromModel(m)
		if err != nil {
			return nil, err
		}
		out[svc] = res.Files
	}
	return out, nil
}

func runDCM(r *run) error {
	hostRoot, err := os.MkdirTemp("", "perfbench-hosts-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(hostRoot)
	s, setupS, err := setupMedian(func() (*dcmSys, error) { return buildDCM(r.seed, hostRoot) }, (*dcmSys).close)
	if err != nil {
		return err
	}
	defer s.close()
	heap := liveHeapMB()

	var spans *spanLog
	if r.trace {
		spans = &spanLog{}
	}
	cs := &churnState{shells: map[string]string{}}
	var fleet, generate, full []float64
	var pushed []float64
	var installs, installTime float64
	var fleetStats []*dcm.CycleStats
	deadline := time.Now().Add(r.seconds)
	// One round: a forced full pass, then fleetPasses fleet passes and as
	// many generate-only passes. Runs attempt whole rounds.
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		// Forced full pass, checked against the incremental model it
		// replaces.
		s.churn(r, cs, r.seed)
		for _, svc := range services {
			if _, _, err := s.sys.DCM.Planner().Run(svc, gen.Incrementals[svc]); err != nil {
				return err
			}
		}
		incr, err := s.renderAll()
		if err != nil {
			return err
		}
		for _, svc := range services {
			s.sys.DCM.Planner().Invalidate(svc)
		}
		st, d := s.pass(r, spans, "full")
		if st != nil {
			full = append(full, us(d))
			if st.FullBuilds != len(services) {
				r.wrong("forced full pass built %d services fully, want %d", st.FullBuilds, len(services))
			}
			got, err := s.renderAll()
			if err != nil {
				return err
			}
			for _, svc := range services {
				if !sameFiles(incr[svc], got[svc]) {
					r.wrong("%s: full rebuild differs from the incremental model", svc)
				}
			}
			s.checkHosts(r, cs)
		}
		for i := 0; i < fleetPasses; i++ {
			s.churn(r, cs, r.seed)
			st, d := s.pass(r, spans, "fleet")
			if st == nil {
				continue
			}
			fleet = append(fleet, us(d))
			pushed = append(pushed, float64(st.BytesPushed))
			installs += float64(st.HostsUpdated)
			installTime += d.Seconds()
			fleetStats = append(fleetStats, st)
			if st.DeltaBuilds == 0 || st.HostsUpdated == 0 {
				r.wrong("fleet pass did no delta work: %s", st.Summary())
			}
			s.checkHosts(r, cs)
		}
		s.setHosts(r, false)
		before := s.hostInstalls()
		for i := 0; i < fleetPasses; i++ {
			s.churn(r, cs, r.seed)
			st, d := s.pass(r, spans, "generate")
			if st == nil {
				continue
			}
			generate = append(generate, us(d))
			if st.HostsUpdated != 0 || st.Generated == 0 {
				r.wrong("generate-only pass: %s", st.Summary())
			}
		}
		if s.hostInstalls() != before {
			r.wrong("generate-only passes installed on NFS hosts")
		}
		s.setHosts(r, true)
	}
	if len(fleet) == 0 || len(generate) == 0 || len(full) == 0 {
		return fmt.Errorf("dcm: a phase completed no pass")
	}
	fmt.Printf("# dcm: %d full, %d fleet, %d generate-only passes\n", len(full), len(fleet), len(generate))
	r.report("setup_s", "setup_s", setupS, "s")
	r.report("heap_mb", "heap_mb", heap, "MB")
	r.report("rate_per_s", "host_installs_per_s", installs/installTime, "1/s")
	r.report("lat_a_us", "dcm_pass_us", median(fleet), "us")
	r.report("lat_b_us", "dcm_generate_us", median(generate), "us")
	r.report("lat_c_us", "dcm_full_pass_us", median(full), "us")
	r.report("bytes_per_op", "dcm_push_bytes", median(pushed), "B")
	if !r.trace {
		return nil
	}
	env := &layerEnv{
		d: s.sys.DB, kdc: s.sys.KDC, addr: s.sys.ServerAddr,
		adminPw: s.adminPw, keys: s.keys, seed: r.seed, clk: s.clk,
		populateS: s.bootS, setupS: setupS, spans: spans,
		dcmStats: fleetStats,
	}
	return measureLayers(r, env)
}

func sameFiles(a, b map[string][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for name, data := range a {
		if !bytes.Equal(data, b[name]) {
			return false
		}
	}
	return true
}
