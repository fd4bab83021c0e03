(** Flight recorder: a bounded in-process time-series store over a
    {!Metrics} registry.

    A sampler snapshots the registry on a fixed cadence (default 1s)
    and keeps the last N windows (default 3600) in a ring.  Windows
    store {e deltas}: counter increments, gauge values, and sparse
    histogram bucket increments — so range queries can recompute
    rates and per-window quantiles over any trailing interval, and an
    hour of serving telemetry fits in a few MB regardless of how long
    the process has been up.

    The whole store serializes to JSON-lines with deterministic float
    rendering, so bench runs leave a replayable series
    ([BENCH_tsdb.json]) and [save] ∘ [load] round-trips
    byte-identically.

    All operations are thread-safe; [sample] (from the sampler thread)
    and [range] (from the monitor's session threads) interleave freely. *)

type t

val create :
  ?registry:Metrics.t -> ?resolution_s:float -> ?capacity:int -> unit -> t
(** [create ()] targets {!Metrics.default}, 1s resolution, 3600
    windows.  @raise Invalid_argument on non-positive resolution or
    capacity. *)

val default : t
(** The store the shell, server and monitor share. *)

val sample : t -> unit
(** Snapshot the registry into a new window: counters delta'd against
    the previous sample (a negative delta — counter reset — restarts
    from the new cumulative value), gauges recorded as-is, histograms
    as sparse bucket increments (only when the window saw
    observations). *)

val capacity : t -> int

val resolution_s : t -> float

val window_count : t -> int
(** Windows currently held (≤ [capacity]; oldest are overwritten). *)

(** {1 Range queries} *)

type agg =
  | Rate  (** counter increments per second *)
  | Sum  (** summed increments / gauge values / histogram sums *)
  | Avg
  | Min
  | Max
  | Quantile of float  (** per-step quantile from merged bucket deltas *)

val agg_of_string : string -> agg option
(** ["rate" | "sum" | "avg" | "min" | "max" | "p50" | "p99" | "p999" | ...] *)

val agg_to_string : agg -> string

val range :
  t ->
  ?labels:Metrics.labels ->
  ?step_s:float ->
  window_s:float ->
  agg:agg ->
  string ->
  (float * float option) list
(** [range t ~window_s ~agg name] aggregates the series named [name]
    over [[now - window_s, now]] into [window_s / step_s] buckets
    (step defaults to the store's resolution), oldest first.  Each
    element is [(bucket_end_ts, value)]; [None] marks a bucket no
    window landed in.  [?labels] restricts to series whose label set
    contains every given pair; by default all label sets of the name
    are merged. *)

val series : t -> (string * string) list
(** Metric names present anywhere in the ring, with their point kind
    (["rate" | "gauge" | "hist"]), sorted — the dashboard's listing. *)

(** {1 Persistence} *)

val to_json_lines : t -> string
(** Header line, then one JSON object per window, oldest first. *)

val save : t -> string -> unit

val load : string -> t
(** @raise Json.Parse_error on malformed documents. *)

val of_json_lines : string -> t

(** {1 The sampler thread} *)

val start : t -> unit
(** Spawn the sampler ticking every [resolution_s].  Idempotent while
    running. *)

val stop : t -> unit
(** Stop and join the sampler thread.  No-op when not running. *)

val running : t -> bool
