package main

import (
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"moira/internal/db"
	"moira/internal/queries"
)

// The read mix's handles. Point lookups name exactly one row; membership
// queries return a list's members or a user's lists.
var (
	pointHandles      = []string{"get_user_by_login", "get_user_by_uid", "get_machine", "get_filesys_by_label", "get_pobox"}
	membershipHandles = []string{"get_lists_of_member", "get_members_of_list"}
	mixHandles        = append(append([]string(nil), pointHandles...), membershipHandles...)
	evenHandles       = []string{"get_user_by_login", "get_user_by_uid", "get_machine", "get_pobox", "get_lists_of_member", "get_members_of_list"}
)

// zipfS is the skew of key popularity: rank k is drawn with weight
// 1/(1+k)^zipfS over a seed-shuffled order of each key table.
const zipfS = 1.1

// call is one request: a handle and its arguments.
type call struct {
	name string
	args []string
}

// keyTable is one population key set in seed-shuffled popularity order.
type keyTable []string

// keys holds the population's keys, read from the database once at
// set-up: the benchmark's own view of what exists.
type keys struct {
	logins   keyTable // every user
	uids     keyTable // uids held by exactly one user
	machines keyTable
	labels   keyTable // filesystem labels
	lists    keyTable // lists with at least one member
}

// loadKeys reads the key tables from d and orders each one by a
// permutation drawn from seed, so the Zipf head differs between seeds.
func loadKeys(d *db.DB, seed int64) *keys {
	k := &keys{}
	uidCount := map[int]int{}
	d.LockShared()
	d.EachUser(func(u *db.User) bool {
		k.logins = append(k.logins, u.Login)
		uidCount[u.UID]++
		return true
	})
	d.EachMachine(func(m *db.Machine) bool {
		k.machines = append(k.machines, m.Name)
		return true
	})
	d.EachFilesys(func(f *db.Filesys) bool {
		k.labels = append(k.labels, f.Label)
		return true
	})
	d.EachList(func(l *db.List) bool {
		if len(d.MembersOf(l.ListID)) > 0 {
			k.lists = append(k.lists, l.Name)
		}
		return true
	})
	d.UnlockShared()
	for uid, n := range uidCount {
		if n == 1 {
			k.uids = append(k.uids, strconv.Itoa(uid))
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for _, t := range []*keyTable{&k.logins, &k.uids, &k.machines, &k.labels, &k.lists} {
		sort.Strings(*t)
		rng.Shuffle(len(*t), func(i, j int) { (*t)[i], (*t)[j] = (*t)[j], (*t)[i] })
	}
	return k
}

// picker draws Zipf-skewed keys and mix requests from one seeded source.
// A picker is used by one goroutine.
type picker struct {
	k    *keys
	rng  *rand.Rand
	zipf map[int]*rand.Zipf
}

func newPicker(k *keys, seed int64) *picker {
	return &picker{k: k, rng: rand.New(rand.NewSource(seed)), zipf: map[int]*rand.Zipf{}}
}

func (p *picker) pick(t keyTable) string {
	z := p.zipf[len(t)]
	if z == nil {
		z = rand.NewZipf(p.rng, zipfS, 1, uint64(len(t)-1))
		p.zipf[len(t)] = z
	}
	return t[z.Uint64()]
}

// point returns a point lookup of the given handle on a population key.
func (p *picker) point(handle string) call {
	switch handle {
	case "get_user_by_login":
		return call{handle, []string{p.pick(p.k.logins)}}
	case "get_user_by_uid":
		return call{handle, []string{p.pick(p.k.uids)}}
	case "get_machine":
		return call{handle, []string{p.pick(p.k.machines)}}
	case "get_filesys_by_label":
		return call{handle, []string{p.pick(p.k.labels)}}
	case "get_pobox":
		return call{handle, []string{p.pick(p.k.logins)}}
	case "get_lists_of_member":
		return call{handle, []string{"USER", p.pick(p.k.logins)}}
	default: // get_members_of_list
		return call{handle, []string{p.pick(p.k.lists)}}
	}
}

// wildcardPrefix is the literal prefix length of a wildcard request.
const wildcardPrefix = 3

// wildcard returns get_user_by_login on the first letters of a login
// followed by "*". The login is drawn uniformly, not by popularity: a
// prefix's match count varies a hundredfold, and under Zipf one seed's
// hottest prefix would set the cost of the whole wildcard share.
func (p *picker) wildcard() call {
	return call{"get_user_by_login", []string{prefixOf(p.k.logins[p.rng.Intn(len(p.k.logins))]) + "*"}}
}

func prefixOf(login string) string {
	if len(login) > wildcardPrefix {
		return login[:wildcardPrefix]
	}
	return login
}

// Mix shares in requests per thousand. get_filesys_by_label scans every
// filesystem, about 15 ms at 100,000 users against tens of microseconds
// for the other point lookups: at an equal share its scans were nearly
// all of the server's work, and at five per thousand still half of it,
// so that query throughput tracked the speed of one memory-bound scan on
// the shared machine. It gets the share of an occasional administrative
// lookup.
const (
	wildcardPerMille = 50
	filesysPerMille  = 1
)

// mix draws one request of the query mix: wildcards, the occasional
// filesystem lookup, and the rest spread evenly over the other six point
// and membership handles.
func (p *picker) mix() call {
	switch n := p.rng.Intn(1000); {
	case n < wildcardPerMille:
		return p.wildcard()
	case n < wildcardPerMille+filesysPerMille:
		return p.point("get_filesys_by_label")
	default:
		return p.point(evenHandles[p.rng.Intn(len(evenHandles))])
	}
}

// arity is the number of fields each tuple of handle carries.
func arity(handle string) int {
	q, ok := queries.Lookup(handle)
	if !ok {
		return -1
	}
	return len(q.Returns)
}

// keyField is the index of the tuple field that echoes a point lookup's
// key, and the key in the form that field carries it.
func keyField(c call) (int, string) {
	switch c.name {
	case "get_user_by_uid":
		return 1, c.args[0]
	case "get_machine":
		return 0, strings.ToUpper(c.args[0])
	default:
		return 0, c.args[0]
	}
}

// isWildcard reports whether c is a wildcard request.
func isWildcard(c call) bool {
	return strings.HasSuffix(c.args[len(c.args)-1], "*")
}

// checkShape checks a reply's structure against facts independent of the
// program: arity, one tuple with the requested key for point lookups,
// and only prefix-matching names for wildcards. It returns a description
// of the first mismatch, or "".
func checkShape(c call, tuples [][]string) string {
	want := arity(c.name)
	for _, t := range tuples {
		if len(t) != want {
			return "arity " + strconv.Itoa(len(t)) + " want " + strconv.Itoa(want)
		}
	}
	switch {
	case isWildcard(c):
		prefix := strings.TrimSuffix(c.args[0], "*")
		if len(tuples) == 0 {
			return "wildcard matched nothing"
		}
		for _, t := range tuples {
			if !strings.HasPrefix(t[0], prefix) {
				return "wildcard returned " + t[0]
			}
		}
	case c.name == "get_lists_of_member" || c.name == "get_members_of_list":
		if len(tuples) == 0 {
			return "no tuples"
		}
	default:
		if len(tuples) != 1 {
			return strconv.Itoa(len(tuples)) + " tuples"
		}
		i, k := keyField(c)
		if tuples[0][i] != k {
			return "key field " + tuples[0][i]
		}
	}
	return ""
}
