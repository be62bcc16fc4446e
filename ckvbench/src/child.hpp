// Runs a pass in a forked child process, so every pass starts from a fresh
// process: its peak RSS is its own, and its set-up pays the worker-pool
// start as a real serving process does. The parent never starts the pool,
// so forking is safe; the child sends its PassResult back through a pipe
// and the parent waits for it to exit.
#pragma once

#include <functional>

#include "pass.hpp"

namespace ckvbench {

/// Runs `body` in a child process and returns its result; throws when the
/// child dies or sends a malformed result. An exception inside `body` is
/// reported as one of the result's failures.
PassResult run_in_child(const std::function<PassResult()>& body);

}  // namespace ckvbench
