// Fixture: allowlist. local/process_pool is the real-process execution
// layer and is allowlisted; even an explicit command-line mention must not
// be checked, so the violations below never appear in diagnostics.
#include <ctime>

namespace fixture {

long spawn_timestamp() { return ::time(nullptr); }

}  // namespace fixture
