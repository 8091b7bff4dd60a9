package sysimage

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// MarshalJSONIndent serializes the image to indented JSON. Map iteration
// order does not matter because encoding/json sorts map keys.
func (im *Image) MarshalJSONIndent() ([]byte, error) {
	return json.MarshalIndent(im, "", "  ")
}

// LoadJSON deserializes an image produced by MarshalJSONIndent. That
// canonical form takes the single-pass decoder in decode.go; any other
// input goes through decodeJSONReflect, so the fast path changes neither
// the image nor the error text LoadJSON returns for any input. The
// returned image never aliases data.
func LoadJSON(data []byte) (*Image, error) {
	if im, ok := decodeImage(data); ok {
		return im, nil
	}
	return decodeJSONReflect(data)
}

// decodeJSONReflect is the general decoder behind LoadJSON: encoding/json
// plus interning. It accepts every document json.Unmarshal does except
// one whose files, users or groups map holds a null entry, which no
// caller could query safely.
func decodeJSONReflect(data []byte) (*Image, error) {
	var im Image
	if err := json.Unmarshal(data, &im); err != nil {
		return nil, fmt.Errorf("sysimage: decode image: %w", err)
	}
	if err := im.nullEntry(); err != nil {
		return nil, fmt.Errorf("sysimage: decode image: %w", err)
	}
	im.initMaps()
	im.internStrings()
	return &im, nil
}

// initMaps replaces nil maps (absent or null in the JSON) with empty ones.
func (im *Image) initMaps() {
	if im.Files == nil {
		im.Files = make(map[string]*FileMeta)
	}
	if im.Users == nil {
		im.Users = make(map[string]*User)
	}
	if im.Groups == nil {
		im.Groups = make(map[string]*Group)
	}
	if im.Env == nil {
		im.Env = make(map[string]string)
	}
}

// nullEntry names the null value in the files, users or groups map, with
// the smallest key so the error text does not depend on map order.
func (im *Image) nullEntry() error {
	if k, ok := nullKey(im.Files); ok {
		return fmt.Errorf("files entry %q is null", k)
	}
	if k, ok := nullKey(im.Users); ok {
		return fmt.Errorf("users entry %q is null", k)
	}
	if k, ok := nullKey(im.Groups); ok {
		return fmt.Errorf("groups entry %q is null", k)
	}
	return nil
}

func nullKey[V any](m map[string]*V) (key string, found bool) {
	for k, v := range m {
		if v == nil && (!found || k < key) {
			key, found = k, true
		}
	}
	return key, found
}

// SaveDir writes one JSON file per image into dir, creating it if needed.
// File names are "<id>.json".
func SaveDir(dir string, images []*Image) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("sysimage: create %s: %w", dir, err)
	}
	for _, im := range images {
		data, err := im.MarshalJSONIndent()
		if err != nil {
			return fmt.Errorf("sysimage: encode %s: %w", im.ID, err)
		}
		name := filepath.Join(dir, im.ID+".json")
		if err := os.WriteFile(name, data, 0o644); err != nil {
			return fmt.Errorf("sysimage: write %s: %w", name, err)
		}
	}
	return nil
}

// LoadDir reads every "*.json" image in dir, sorted by file name so corpora
// load deterministically. It is LoadDirStream collecting every image.
func LoadDir(dir string) ([]*Image, error) {
	images := []*Image{}
	if err := LoadDirStream(dir, func(im *Image) error {
		images = append(images, im)
		return nil
	}); err != nil {
		return nil, err
	}
	return images, nil
}
