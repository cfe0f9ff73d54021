package firmware_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mavr/internal/firmware"
)

func TestProfileByName(t *testing.T) {
	for _, name := range []string{"testapp", "arduplane", "arducopter", "ardurover"} {
		spec, err := firmware.ProfileByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if spec.Name != name {
			t.Errorf("ProfileByName(%q) returned profile %q", name, spec.Name)
		}
	}
}

func TestProfileByNameUnknown(t *testing.T) {
	for _, load := range []func() error{
		func() error { _, err := firmware.ProfileByName("nosuch"); return err },
		func() error { _, err := firmware.LoadELF("", "nosuch"); return err },
	} {
		err := load()
		if err == nil || !strings.Contains(err.Error(), `"nosuch"`) {
			t.Errorf("unknown profile: got error %v, want one naming \"nosuch\"", err)
		}
	}
}

func TestLoadELFFromPath(t *testing.T) {
	img, err := firmware.Generate(firmware.TestApp(), firmware.ModeMAVR)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := img.ELF.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "testapp.elf")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	// A path takes precedence over the profile name.
	f, err := firmware.LoadELF(path, "nosuch")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f.Text, img.Flash) {
		t.Errorf("loaded .text (%d bytes) differs from the generated flash image (%d bytes)", len(f.Text), len(img.Flash))
	}
	if _, err := firmware.LoadELF(filepath.Join(t.TempDir(), "missing.elf"), "testapp"); err == nil {
		t.Error("missing ELF file accepted")
	}
}
