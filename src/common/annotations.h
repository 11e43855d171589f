// Source-level annotation macros: the vocabulary the static-analysis stack
// (tools/ecrs_analyze, Clang -Wthread-safety, the sanitizer lanes) reads.
//
// Hot-path purity (checked transitively by ecrs-analyze):
//
//  - ECRS_HOT marks a function as mechanism-hot: at steady state it must
//    not reach the global allocator (`new`, malloc, make_unique/shared), a
//    mutex acquisition, a `throw`, or a blocking call (parallel_for, wait,
//    join) through ANY call chain the analyzer can resolve within the TU.
//    Apply it to the inner kernels — selection loops, probe replays, SIMD
//    kernels, arena fast paths, the DES event loop — not to orchestrators
//    that legitimately compile, validate, fan out or audit.
//  - ECRS_HOT_ESCAPE marks an audited cold branch reachable from hot code:
//    arena/slab growth (amortized away at steady state), the ECRS_CHECK
//    failure path, audit_or_throw. The analyzer does not traverse into an
//    escape-marked function and ignores its own facts. Every escape must
//    carry a comment saying why the branch is cold; docs/ANALYSIS.md has
//    the policy.
//
// Thread-safety capability analysis (Clang -Wthread-safety; a no-op under
// GCC): the ECRS_CAPABILITY/ECRS_GUARDED_BY/... macros below follow the
// Clang thread-safety attribute reference. Use them with the annotated
// ecrs::mutex wrappers (common/mutex.h) — std::mutex itself carries no
// capability attribute, so the analysis cannot see through it.
//
// Thread ownership: ECRS_THREAD_OWNED documents single-thread-confined
// state (the bump arena's cursor, msoa_session's warm cache, ssam_scratch)
// where no mutex exists to guard it by. It expands to an `annotate`
// attribute under Clang so tools can surface it, and to nothing elsewhere.
#pragma once

#if defined(__clang__)
#define ECRS_ANNOTATE(text) __attribute__((annotate(text)))
#else
#define ECRS_ANNOTATE(text)
#endif

// Hot-path purity markers (tools/ecrs_analyze). Place at the start of the
// declaration: `ECRS_HOT void eager_greedy_loop(...)`. The textual fallback
// front-end keys on the literal token, the libclang front-end on the
// expanded annotate attribute — keep the macro name on the same line(s) as
// the signature it marks.
#define ECRS_HOT ECRS_ANNOTATE("ecrs::hot")
#define ECRS_HOT_ESCAPE ECRS_ANNOTATE("ecrs::hot_escape")

// Single-thread-confined state; `what` names the owning thread or the
// confinement rule (e.g. "arena owner thread", "session thread").
#define ECRS_THREAD_OWNED(what) ECRS_ANNOTATE("ecrs::thread_owned:" what)

// ---------------------------------------------------------------------------
// Clang thread-safety analysis attributes. Mirrors the reference macro set
// from the Clang documentation, prefixed to avoid collisions. All of them
// compile away when the attribute is unsupported (GCC, old Clang).
#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define ECRS_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef ECRS_THREAD_ANNOTATION
#define ECRS_THREAD_ANNOTATION(x)
#endif

// On a class: instances are a capability (a lockable resource).
#define ECRS_CAPABILITY(x) ECRS_THREAD_ANNOTATION(capability(x))
// On an RAII class whose constructor acquires and destructor releases.
#define ECRS_SCOPED_CAPABILITY ECRS_THREAD_ANNOTATION(scoped_lockable)
// On a data member: only accessible while holding the named capability.
#define ECRS_GUARDED_BY(x) ECRS_THREAD_ANNOTATION(guarded_by(x))
// On a pointer member: the pointed-to data is guarded.
#define ECRS_PT_GUARDED_BY(x) ECRS_THREAD_ANNOTATION(pt_guarded_by(x))
// On a function: the caller must hold the capability when calling.
#define ECRS_REQUIRES(...) \
  ECRS_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
// On a function: acquires the capability; caller must not already hold it.
#define ECRS_ACQUIRE(...) \
  ECRS_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
// On a function: releases the capability; caller must hold it.
#define ECRS_RELEASE(...) \
  ECRS_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
// On a function: acquires iff the return value equals the first argument.
#define ECRS_TRY_ACQUIRE(...) \
  ECRS_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
// On a function: must be called while NOT holding the capability
// (deadlock prevention for self-locking APIs).
#define ECRS_EXCLUDES(...) ECRS_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
// On a function: returns a reference to the named capability.
#define ECRS_RETURN_CAPABILITY(x) ECRS_THREAD_ANNOTATION(lock_returned(x))
// Lock-ordering declarations.
#define ECRS_ACQUIRED_BEFORE(...) \
  ECRS_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define ECRS_ACQUIRED_AFTER(...) \
  ECRS_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
// Escape hatch: the function is trusted to be correct without analysis.
// Every use needs a comment explaining why (docs/ANALYSIS.md policy).
#define ECRS_NO_THREAD_SAFETY_ANALYSIS \
  ECRS_THREAD_ANNOTATION(no_thread_safety_analysis)

// ---------------------------------------------------------------------------
// Sanitizer suppressions. The UBSan integer lane (-fsanitize=integer,
// implicit-conversion; CMakePresets `ubsan-int`) flags deliberate modular
// arithmetic and audited narrowing. Suppress at the FUNCTION that owns the
// audited arithmetic — never with blanket -fno-sanitize flags — and say in
// a comment what the benign pattern is. Clang-only: the `integer` and
// `implicit-conversion` sanitizer groups do not exist in GCC, and GCC
// rejects unknown no_sanitize arguments.
#if defined(__clang__)
#define ECRS_NO_SANITIZE_INTEGER \
  __attribute__((no_sanitize("integer", "implicit-conversion")))
#else
#define ECRS_NO_SANITIZE_INTEGER
#endif
