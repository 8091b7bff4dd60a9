package sysimage

import (
	"testing"
	"testing/quick"
)

func testImage() *Image {
	im := New("test-1")
	im.Users["root"] = &User{Name: "root", UID: 0, GID: 0, IsAdmin: true}
	im.Users["mysql"] = &User{Name: "mysql", UID: 27, GID: 27}
	im.Users["nobody"] = &User{Name: "nobody", UID: 99, GID: 99}
	im.Groups["root"] = &Group{Name: "root", GID: 0}
	im.Groups["mysql"] = &Group{Name: "mysql", GID: 27}
	im.Groups["www"] = &Group{Name: "www", GID: 48, Members: []string{"nobody"}}
	im.Services = []Service{{Name: "mysql", Port: 3306, Protocol: "tcp"}}
	im.AddDir("/var/lib/mysql", "mysql", "mysql", 0o750)
	im.AddRegular("/var/lib/mysql/ibdata1", "mysql", "mysql", 0o660, 1024)
	im.AddRegular("/etc/my.cnf", "root", "root", 0o644, 200)
	im.AddSymlink("/data", "/var/lib/mysql", "root", "root")
	return im
}

func TestLookupAndKinds(t *testing.T) {
	im := testImage()
	if !im.IsDir("/var/lib/mysql") {
		t.Fatal("expected directory")
	}
	if !im.IsFile("/etc/my.cnf") {
		t.Fatal("expected regular file")
	}
	if im.IsDir("/etc/my.cnf") {
		t.Fatal("file must not be a directory")
	}
	if im.Exists("/no/such/path") {
		t.Fatal("missing path must not exist")
	}
}

func TestImplicitParents(t *testing.T) {
	im := testImage()
	for _, p := range []string{"/var", "/var/lib", "/etc", "/"} {
		fm := im.Lookup(p)
		if fm == nil || fm.Kind != KindDir {
			t.Fatalf("parent %s should be an implicit directory, got %+v", p, fm)
		}
	}
}

func TestPathNormalization(t *testing.T) {
	im := testImage()
	if !im.IsDir("/var/lib/mysql/") {
		t.Fatal("trailing slash should normalize")
	}
	if !im.IsFile("/etc//my.cnf") {
		t.Fatal("duplicate separators should normalize")
	}
}

func TestSymlinkResolution(t *testing.T) {
	im := testImage()
	if !im.IsDir("/data") {
		t.Fatal("symlink to directory should resolve to dir")
	}
	fm := im.Lookup("/data")
	if fm == nil || fm.Kind != KindSymlink {
		t.Fatal("Lookup must not resolve symlinks")
	}
}

func TestSymlinkCycleBounded(t *testing.T) {
	im := New("cycle")
	im.AddSymlink("/a", "/b", "root", "root")
	im.AddSymlink("/b", "/a", "root", "root")
	if im.Resolve("/a") != nil && im.Resolve("/a").Kind != KindSymlink {
		t.Fatal("cycle should not resolve to a non-symlink")
	}
	// Must terminate (no infinite loop) — reaching here is the test.
}

func TestChildrenSorted(t *testing.T) {
	im := testImage()
	im.AddRegular("/var/lib/mysql/a.frm", "mysql", "mysql", 0o660, 10)
	kids := im.Children("/var/lib/mysql")
	if len(kids) != 2 {
		t.Fatalf("children = %d, want 2", len(kids))
	}
	if kids[0].Path > kids[1].Path {
		t.Fatal("children must be sorted")
	}
}

func TestHasSubdirAndSymlink(t *testing.T) {
	im := testImage()
	if im.HasSubdir("/var/lib/mysql") {
		t.Fatal("no subdir expected")
	}
	im.AddDir("/var/lib/mysql/perf", "mysql", "mysql", 0o750)
	if !im.HasSubdir("/var/lib/mysql") {
		t.Fatal("subdir expected")
	}
	if im.HasSymlink("/var/lib/mysql") {
		t.Fatal("no symlink expected")
	}
	im.AddSymlink("/var/lib/mysql/link", "/tmp", "mysql", "mysql")
	if !im.HasSymlink("/var/lib/mysql") {
		t.Fatal("symlink expected")
	}
}

func TestAccounts(t *testing.T) {
	im := testImage()
	if !im.UserExists("mysql") || im.UserExists("ghost") {
		t.Fatal("user existence wrong")
	}
	if !im.GroupExists("www") || im.GroupExists("ghost") {
		t.Fatal("group existence wrong")
	}
	if !im.UserInGroup("mysql", "mysql") {
		t.Fatal("primary-GID membership should count")
	}
	if !im.UserInGroup("nobody", "www") {
		t.Fatal("member-list membership should count")
	}
	if im.UserInGroup("mysql", "www") {
		t.Fatal("non-member should not be in group")
	}
	if !im.IsAdmin("root") || im.IsAdmin("mysql") {
		t.Fatal("admin detection wrong")
	}
	if pg := im.PrimaryGroup("mysql"); pg != "mysql" {
		t.Fatalf("primary group = %q", pg)
	}
}

func TestPermissions(t *testing.T) {
	im := testImage()
	if !im.Accessible("mysql", "/var/lib/mysql/ibdata1") {
		t.Fatal("owner should read 0660 file")
	}
	if im.Accessible("nobody", "/var/lib/mysql/ibdata1") {
		t.Fatal("other should not read 0660 file")
	}
	if !im.Accessible("root", "/var/lib/mysql/ibdata1") {
		t.Fatal("root reads everything")
	}
	if !im.Accessible("nobody", "/etc/my.cnf") {
		t.Fatal("other should read 0644 file")
	}
	if im.Writable("nobody", "/etc/my.cnf") {
		t.Fatal("other should not write 0644 file")
	}
	if !im.Writable("mysql", "/var/lib/mysql/ibdata1") {
		t.Fatal("owner should write 0660 file")
	}
	if im.Accessible("ghost", "/etc/my.cnf") {
		t.Fatal("unknown user should not access anything")
	}
	if im.Accessible("mysql", "/missing") {
		t.Fatal("missing path never accessible")
	}
}

func TestGroupPermissionBit(t *testing.T) {
	im := testImage()
	im.AddRegular("/srv/shared.log", "root", "www", 0o640, 0)
	if !im.Accessible("nobody", "/srv/shared.log") {
		t.Fatal("www group member should read 0640 group file")
	}
	if im.Writable("nobody", "/srv/shared.log") {
		t.Fatal("group bit 4 does not grant write")
	}
}

func TestServices(t *testing.T) {
	im := testImage()
	if !im.PortRegistered(3306) || im.PortRegistered(1234) {
		t.Fatal("port registration wrong")
	}
	if im.ServiceForPort(3306) != "mysql" || im.ServiceForPort(1) != "" {
		t.Fatal("service lookup wrong")
	}
}

func TestConfigFiles(t *testing.T) {
	im := testImage()
	im.SetConfig("mysql", "/etc/my.cnf", "[mysqld]\nuser=mysql\n")
	cf := im.ConfigFor("mysql")
	if cf == nil || cf.Path != "/etc/my.cnf" {
		t.Fatalf("config = %+v", cf)
	}
	im.SetConfig("mysql", "/etc/my.cnf", "new")
	if im.ConfigFor("mysql").Content != "new" {
		t.Fatal("SetConfig should replace in place")
	}
	if len(im.ConfigFiles) != 1 {
		t.Fatal("SetConfig must not duplicate")
	}
	if im.ConfigFor("apache") != nil {
		t.Fatal("missing app config should be nil")
	}
}

func TestCloneIsDeep(t *testing.T) {
	im := testImage()
	c := im.Clone()
	c.Files["/etc/my.cnf"].Owner = "attacker"
	c.Users["mysql"].UID = 1
	c.Groups["www"].Members[0] = "attacker"
	c.Env["X"] = "1"
	if im.Files["/etc/my.cnf"].Owner != "root" {
		t.Fatal("clone shares file meta")
	}
	if im.Users["mysql"].UID != 27 {
		t.Fatal("clone shares users")
	}
	if im.Groups["www"].Members[0] != "nobody" {
		t.Fatal("clone shares group member slices")
	}
	if _, ok := im.Env["X"]; ok {
		t.Fatal("clone shares env")
	}
}

func TestListsSorted(t *testing.T) {
	im := testImage()
	files := im.FileList()
	for i := 1; i < len(files); i++ {
		if files[i-1] > files[i] {
			t.Fatal("FileList not sorted")
		}
	}
	users := im.UserList()
	if len(users) != 3 || users[0] != "mysql" {
		t.Fatalf("UserList = %v", users)
	}
	groups := im.GroupList()
	if len(groups) != 3 || groups[0] != "mysql" {
		t.Fatalf("GroupList = %v", groups)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	im := testImage()
	im.SetConfig("mysql", "/etc/my.cnf", "[mysqld]\nuser=mysql\n")
	im.HW = Hardware{Present: true, CPUCores: 4, MemBytes: 1 << 30}
	im.OS = OSInfo{DistName: "ubuntu", Version: "12.04", SELinux: "disabled"}
	data, err := im.MarshalJSONIndent()
	if err != nil {
		t.Fatal(err)
	}
	back, err := LoadJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.ID != im.ID || len(back.Files) != len(im.Files) {
		t.Fatal("round trip lost data")
	}
	if !back.IsDir("/var/lib/mysql") || !back.UserExists("mysql") {
		t.Fatal("round trip lost semantics")
	}
	if back.HW.CPUCores != 4 || back.OS.DistName != "ubuntu" {
		t.Fatal("round trip lost HW/OS")
	}
}

func TestLoadJSONEmptyMaps(t *testing.T) {
	im, err := LoadJSON([]byte(`{"id":"x"}`))
	if err != nil {
		t.Fatal(err)
	}
	// Maps must be usable after decoding a minimal document.
	im.Env["k"] = "v"
	im.Users["u"] = &User{Name: "u"}
	if !im.UserExists("u") {
		t.Fatal("maps not initialized")
	}
}

func TestLoadJSONError(t *testing.T) {
	// A null map entry would leave a nil *FileMeta, *User or *Group for
	// queries to dereference; it is rejected at decode time.
	for _, doc := range []string{"{broken", `{"files":{"/":null}}`, `{"users":{"u":null}}`, `{"groups":{"g":null}}`} {
		if _, err := LoadJSON([]byte(doc)); err == nil {
			t.Fatalf("%s: expected decode error", doc)
		}
	}
}

func TestSaveLoadDir(t *testing.T) {
	dir := t.TempDir()
	a, b := testImage(), testImage()
	a.ID, b.ID = "img-b", "img-a"
	if err := SaveDir(dir, []*Image{a, b}); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].ID != "img-a" || got[1].ID != "img-b" {
		t.Fatalf("LoadDir order wrong: %v %v", got[0].ID, got[1].ID)
	}
}

func TestFileKindString(t *testing.T) {
	if KindFile.String() != "file" || KindDir.String() != "dir" || KindSymlink.String() != "symlink" {
		t.Fatal("kind strings wrong")
	}
	if FileKind(42).String() == "" {
		t.Fatal("unknown kind should still stringify")
	}
}

func TestPermissionProperty(t *testing.T) {
	// Property: write permission implies nothing about read, but the root
	// user can always do both; and Accessible never panics for arbitrary
	// inputs.
	im := testImage()
	f := func(user, p string, mode uint16) bool {
		im.AddRegular("/prop/file", "mysql", "mysql", uint32(mode)&0o777, 1)
		_ = im.Accessible(user, p)
		_ = im.Writable(user, p)
		return im.Accessible("root", "/prop/file") && im.Writable("root", "/prop/file")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
