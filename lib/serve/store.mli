(** The persistent, content-addressed design store.

    One directory of small files, one file per completed result, named
    by the MD5 of its canonical {!Codec} key. An entry is two lines:

    {v
    {"format":1,"key":"adcopt/1|optimize|k=13|...","length":N,"digest":"<md5>"}
    <payload bytes>
    v}

    The header repeats the {e full} key — a filename (hash) collision
    therefore resolves to a miss, never to someone else's payload — and
    pins the payload's length and digest, so truncated or corrupted
    entries read as misses too (counted in {!rejected}). Writes go
    through a temp file and [rename], so a crash mid-write or a
    concurrent reader never observes a torn entry, and two daemons
    pointed at the same directory can safely race (last writer wins;
    both wrote identical bytes by the determinism contract).

    Restarting the daemon — or running [adcopt optimize --store DIR] in
    a sibling process — warm-starts from whatever the directory already
    holds. *)

type t

val open_dir : ?max_entries:int -> string -> t
(** [open_dir dir] creates [dir] (and parents) if needed. Raises
    [Invalid_argument] if the path exists and is not a directory (a
    dangling symlink included), and [Unix.Unix_error] if creating it or
    a missing parent fails (a parent that is a file, no permission, a
    read-only file system). It raises nothing else.

    [max_entries] (default unbounded) caps the directory at that many
    entry files with an LRU-by-mtime sweep — run once at open (a
    restarted daemon inherits a possibly-overfull directory) and after
    every {!add} — so a long-lived daemon answering many distinct cells
    cannot grow its store without bound. Eviction removes the oldest files beyond the cap
    ((mtime, name) order, so ties are deterministic); an evicted entry
    simply reads as a miss. Temp+rename write semantics are
    untouched. *)

val dir : t -> string

val path_of : t -> key:string -> string
(** Where [key]'s entry lives (exposed for the corruption tests). *)

val find : t -> key:string -> string option
(** The stored payload bytes, or [None] on a miss {e or} on any
    integrity failure. Never raises on a damaged entry. *)

val add : t -> key:string -> payload:string -> unit
(** Persist [payload] under [key], atomically. Callers must not store
    truncated (deadline-cut) results — the store is for complete,
    deterministic payloads only. *)

val hits : t -> int

val misses : t -> int
(** Includes rejected entries. *)

val writes : t -> int

val rejected : t -> int
(** Integrity failures observed by {!find}. *)

val evicted : t -> int
(** Entries removed by the [max_entries] LRU sweep since open. *)

val stats_json : t -> Adc_json.Json.t
(** [{"hits":..,"misses":..,"writes":..,"rejected":..,"evicted":..}] —
    embedded in the serve [stats] verb's response. *)
