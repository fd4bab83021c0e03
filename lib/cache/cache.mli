(** The semantic query-result cache.

    Entries are keyed by normalized plan fingerprint plus the exact
    query text (so the constant-eliding, 64-bit fingerprint can never
    alias two different queries), and carry the query's dn-subtree
    {!Footprint} with its {!Vtrie} version stamps.  A hit is served iff
    every stamp is current: updates outside the footprint never cost a
    cached result, updates inside it always invalidate.  Bounded by a
    page budget with exact LRU eviction; admission is cost-aware.

    A cache is an explicit handle, like [Io_stats] — no globals.
    {!attach} subscribes it to one {!Directory}'s update hooks at a
    time; the directory's generation counter is the
    coarse safety net, invalidating everything if it ever advances
    without a matching hook notification. *)

type t

type outcome =
  | Hit of Entry.t array  (** fresh result, already in LRU order *)
  | Stale  (** was cached, but its footprint's version advanced *)
  | Miss

val create : ?budget_pages:int -> ?admit_min_io:int -> unit -> t
(** [budget_pages] bounds the resident result pages (default 256);
    [admit_min_io] is the minimum measured evaluation io for a result
    to be admitted (default 2). *)

val attach : t -> Directory.t -> unit
(** Subscribe to the directory's update hooks for footprint-precise
    invalidation, and adopt its generation as the safety net.  Detaches
    from any previously attached directory first. *)

val detach : t -> unit
(** Unsubscribe from the attached directory's hooks (no-op if none). *)

val note_update : ?subtree:bool -> t -> Dn.t -> unit
(** Record an update at [dn] directly (for sources without hooks, e.g.
    a distributed coordinator told of a remote write). *)

val find : t -> fingerprint:string -> query:string -> outcome
(** Look up; a [Stale] entry is dropped and counted. *)

val peek : t -> fingerprint:string -> query:string -> Entry.t array option
(** Read-only probe: the fresh cached result if one exists, moving no
    counters and leaving the LRU order (and any stale entry) untouched.
    This is what the cost-based planner prices the cache path from —
    planning must not look like serving. *)

val store :
  t ->
  fingerprint:string ->
  query:string ->
  footprint:Footprint.t ->
  cost_io:int ->
  pages:int ->
  Entry.t array ->
  bool
(** Admit a result (evicting LRU entries to fit the budget), or refuse
    it — [false] — when [cost_io] is under the admission threshold or
    it alone exceeds the budget. *)

val clear : t -> unit
(** Drop every entry (counters survive). *)

val budget_pages : t -> int
val set_budget_pages : t -> int -> unit
(** Shrinking evicts immediately. *)

val admit_min_io : t -> int
val set_admit_min_io : t -> int -> unit

type stats = {
  hits : int;
  misses : int;
  stale : int;  (** lookups that found an invalidated entry *)
  evictions : int;
  rejects : int;  (** admissions refused *)
  entries : int;
  used_pages : int;
  used_bytes : int;
  budget_pages : int;
  admit_min_io : int;
}

val stats : t -> stats
val hit_rate : stats -> float

(** The stats snapshot (plus derived hit rate) as a JSON object — the
    payload behind the introspection server's [/cache] route. *)
val stats_json : t -> Json.t
val pp_stats : Format.formatter -> stats -> unit
val pp : Format.formatter -> t -> unit
