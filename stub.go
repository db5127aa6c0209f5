package skipper

import (
	"skipper/internal/dsl/parser"
	"skipper/internal/stubreg"
)

// StubRegistry builds a registry with type-directed placeholder
// implementations for every extern the source declares, deriving arities
// from the declared signatures. It lets tools compile, type-check, expand,
// map and render a specification without the real sequential functions;
// stub results are the declared result type's default value (zero, empty
// list, tuple of defaults, or an opaque token for abstract types), so even
// emulation runs without type confusion. A name declared extern twice is
// an error.
func StubRegistry(src string) (*Registry, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	return stubreg.Registry(prog)
}
