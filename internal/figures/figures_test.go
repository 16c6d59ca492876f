package figures

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// pinnedFigure is one figure's exact output at the pinned settings: the
// sha256 of its stdout and of every file it writes under the output
// directory, keyed by file name.
type pinnedFigure struct {
	id     string
	stdout string
	files  map[string]string
}

// pinnedFigures are the digests of `figures -fig ID -seed 42 -trials 3
// -bits 64 -workers 2 -out DIR`. Manifests are hashed with their
// run-dependent fields masked.
var pinnedFigures = []pinnedFigure{
	// Re-recorded once when ReadU64 and WriteU64 started moving their data
	// before the access's latency passes: the hyperthread-timer-actor row's
	// reader no longer sees a timestamp stored while its load was in flight.
	{"2", "1953e0ab2d8d4eb1a1a4bf027a14b5ff529a17e1496f838e594a478cf33d0d0f", nil},
	{"4", "6623e13c9ee7eb4e8b5bf3ecb525a6e9d1794ad900f5fe0ead1fb41c7cacc7f3", map[string]string{
		"fig4.csv":           "0cd64309a3fcc0ace8181415c746c2fd4cf7d01428a82f14d300767e7c981bcd",
		"fig4.json":          "e006aac7f582fe2e0231af3f71208967d351c79648d81d4e5be2a799ed9293c5",
		"fig4.manifest.json": "4a989aa6046f51762132efa299dc14f7be21e1636295e52edf117d68c4e0291c",
	}},
	{"5", "32aae06fd0abf07923131a7e90d1eb23a1e6cf01fef7c4d41565026fff48b974", map[string]string{
		"fig5.csv": "4278c10b71b95f1a88bd26f6f4cb381b367a10531b03e6f2838d07c105595c9a",
	}},
	{"6a", "2919424bddd2d2a0dbed3ff4d1f592dcd105be8194693f61b20d055ecbc7b624", map[string]string{
		"fig6a.csv": "06c8ddfb3bd4c3248948006da3d724723691f398287a6d263eaae43f13983067",
	}},
	{"6b", "92de4ad446ce704c976daa1a9ef5c4f7d70837940bf4ccf2760fb0bef8d16a5a", map[string]string{
		"fig6b.csv": "2b09496432062afe58a6fe12e196ef317c1309e929bab3077cfc7831ae6fe597",
	}},
	{"7", "7f3e6f745c6d0d018a1b68a6340e5efe8ea2bb1ae9000617d6bec02f7b1e3439", map[string]string{
		"fig7.csv":           "d56e9ad3c3c3f242bb58d34cfdbcbd387ec99c9a9bd211500e29a6da8fdcaf3b",
		"fig7.json":          "2d487e483cf806b7129a6ccf227286ba10a6c55ae1102fae3c7eaece98bb4d88",
		"fig7.manifest.json": "9af4a85b4949f4501a0e7293d7a401c867939e60e45fb44166293e1a983c1da9",
	}},
	{"8", "384c211ef1753d7e438d565c1c5ad1a7621716242ed1f4ca28dd8c43b7d6fb82", map[string]string{
		"fig8.csv":           "dacb4bf684a0643aeac83ea81960bccb730b812ba42257ba282c3759422b3827",
		"fig8.json":          "0d99aa1b1671dd7f8c1c3d279abe275a0304823312f12c1f2a6b5b0289ea4616",
		"fig8.manifest.json": "c64e0b0204466e13335cac1cad34f34bf2eb2acf4b493dcf8561778e4e450b2b",
	}},
	{"M", "fc7bfff9c43f03957b81fbb5d81f24740751716d6e99fa8cfa749d2b097c35e4", nil},
	{"E", "ddf4e0a9d549dbb1375e0e38a1b7fb2632177ebec94fd166dc7633e464a331d0", nil},
	{"P", "52237988070b04c47e4e07205529d09f2eebdff76827a356b6a55c7776dc73c7", nil},
	{"S", "eceb87746e407ced41d72de3c712f5adbf84d0df18fc4b93c6b7e0e95379018f", nil},
	{"O", "41197679fdadc8238a9b4c6e4862093043160372053fff942ff844d928eb67ef", nil},
	{"A", "3ecf92a4db21837e948bc422bc2a2b825919311e01ebe428bc04845d9c40db11", nil},
	{"D", "36491e9f59987850393eae756f5c02c78db19e78d4c9bd2acbb2e8338f58ecad", nil},
}

// manifestFields blanks the manifest fields that differ between runs of the
// same spec: the checkout's revision, the wall time and the creation time.
var manifestFields = []struct {
	re   *regexp.Regexp
	repl string
}{
	{regexp.MustCompile(`"git_rev": "[^"]*"`), `"git_rev": ""`},
	{regexp.MustCompile(`"wall_ms": [0-9]+`), `"wall_ms": 0`},
	{regexp.MustCompile(`"created_at": "[^"]*"`), `"created_at": ""`},
}

func digest(name string, data []byte) string {
	if strings.HasSuffix(name, ".manifest.json") {
		for _, f := range manifestFields {
			data = f.re.ReplaceAll(data, []byte(f.repl))
		}
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// TestFiguresPinned renders every figure in-process and compares its stdout
// and every file it writes with the pinned digests. A change that moves a
// figure's output on purpose re-records its row and says why.
func TestFiguresPinned(t *testing.T) {
	if got, want := len(pinnedFigures), len(allIDs()); got != want {
		t.Fatalf("%d pinned rows for %d figures", got, want)
	}
	for _, row := range pinnedFigures {
		t.Run(row.id, func(t *testing.T) {
			var stdout bytes.Buffer
			env := &Env{
				Seed: 42, Trials: 3, Bits: 64, Window: 15000, Workers: 2,
				OutDir: t.TempDir(), Stdout: &stdout, Stderr: io.Discard,
			}
			if err := env.Run(row.id); err != nil {
				t.Fatal(err)
			}
			if got := digest("stdout", stdout.Bytes()); got != row.stdout {
				t.Errorf("stdout sha256 %s, want %s\n%s", got, row.stdout, stdout.Bytes())
			}
			entries, err := os.ReadDir(env.OutDir)
			if err != nil {
				t.Fatal(err)
			}
			var names []string
			for _, ent := range entries {
				names = append(names, ent.Name())
				data, err := os.ReadFile(filepath.Join(env.OutDir, ent.Name()))
				if err != nil {
					t.Fatal(err)
				}
				if got, want := digest(ent.Name(), data), row.files[ent.Name()]; got != want {
					t.Errorf("%s sha256 %s, want %q", ent.Name(), got, want)
				}
			}
			var want []string
			for name := range row.files {
				want = append(want, name)
			}
			sort.Strings(want)
			if strings.Join(names, " ") != strings.Join(want, " ") {
				t.Errorf("wrote %v, want %v", names, want)
			}
		})
	}
}

func TestSelect(t *testing.T) {
	for _, tc := range []struct {
		list string
		want string // selected ids joined by commas, or "error"
	}{
		{"all", strings.Join(allIDs(), ",")},
		{"7", "7"},
		{"8,2,m,6A", "2,6a,8,M"},
		{"7,7", "7"},
		{"9", "error"},
		{"6c", "error"},
		{"all,7", "error"},
		{"ALL", "error"},
		{"", "error"},
		{"7,", "error"},
	} {
		ids, err := Select(tc.list)
		got := strings.Join(ids, ",")
		if err != nil {
			got = "error"
			if !strings.Contains(err.Error(), strings.Join(allIDs(), ", ")) {
				t.Errorf("Select(%q) error %q does not list the valid ids", tc.list, err)
			}
		}
		if got != tc.want {
			t.Errorf("Select(%q) = %s, want %s", tc.list, got, tc.want)
		}
	}
}
