(* The semantic query-result cache.

   Entries are keyed by normalized plan fingerprint and validated
   against the exact query text (the fingerprint elides constants and,
   being a 64-bit FNV-1a, could collide; the text check makes a hit
   exact, never approximate).  Each entry holds the materialized result
   plus the query's dn-subtree footprint and the footprint's version
   stamps from the {!Vtrie}; a lookup serves the entry iff every stamp
   is still current, so an update anywhere outside the footprint never
   costs a cached result and an update inside it always invalidates.

   Resources are bounded by a page budget with exact LRU eviction (the
   same discipline as {!Buffer_pool}), and admission is cost-aware:
   only results whose measured evaluation io reaches a threshold are
   stored, so cheap base-scope lookups don't churn the budget.

   The cache is an explicit handle, like {!Io_stats} — no globals;
   [attach] subscribes it to a {!Directory}'s update hooks, and the
   directory's generation counter doubles as a coarse safety net: if it
   advances without a matching hook notification, everything is
   invalidated. *)

type outcome = Hit of Entry.t array | Stale | Miss

type cached = {
  key : string;
  query : string;  (* exact query text, for stats display *)
  footprint : Footprint.t;
  stamps : int array;  (* per footprint base; [|epoch|] for Whole *)
  result : Entry.t array;
  pages : int;
  bytes : int;
  mutable prev : cached option;  (* LRU list, most recent at front *)
  mutable next : cached option;
}

type t = {
  mutable budget_pages : int;
  mutable admit_min_io : int;
  trie : Vtrie.t;
  table : (string, cached) Hashtbl.t;
  mutable front : cached option;
  mutable back : cached option;
  mutable used_pages : int;
  mutable used_bytes : int;
  mutable dir : Directory.t option;
  mutable unsubscribe : unit -> unit;  (* from [dir]'s update hooks *)
  mutable seen_generation : int;
  mutable hits : int;
  mutable misses : int;
  mutable stale : int;
  mutable evictions : int;
  mutable rejects : int;
}

(* Process-wide series, shared by every cache like Buffer_pool's. *)
let m_hits = Metrics.counter ~help:"result-cache hits" "cache_hits_total"
let m_misses = Metrics.counter ~help:"result-cache misses" "cache_misses_total"

let m_stale =
  Metrics.counter ~help:"result-cache entries invalidated on lookup"
    "cache_stale_total"

let m_evictions =
  Metrics.counter ~help:"result-cache LRU evictions" "cache_evictions_total"

let m_rejects =
  Metrics.counter ~help:"results refused by cost-aware admission"
    "cache_admission_rejects_total"

let m_bytes =
  Metrics.gauge ~help:"bytes resident in result caches" "cache_resident_bytes"

let m_pages =
  Metrics.gauge ~help:"pages resident in result caches" "cache_resident_pages"

let gauge_add g d = Metrics.set g (Metrics.gauge_value g +. float_of_int d)

let create ?(budget_pages = 256) ?(admit_min_io = 2) () =
  {
    budget_pages = max 0 budget_pages;
    admit_min_io;
    trie = Vtrie.create ();
    table = Hashtbl.create 64;
    front = None;
    back = None;
    used_pages = 0;
    used_bytes = 0;
    dir = None;
    unsubscribe = ignore;
    seen_generation = 0;
    hits = 0;
    misses = 0;
    stale = 0;
    evictions = 0;
    rejects = 0;
  }

(* --- LRU list ----------------------------------------------------------- *)

let unlink t c =
  (match c.prev with Some p -> p.next <- c.next | None -> t.front <- c.next);
  (match c.next with Some n -> n.prev <- c.prev | None -> t.back <- c.prev);
  c.prev <- None;
  c.next <- None

let push_front t c =
  c.next <- t.front;
  (match t.front with Some f -> f.prev <- Some c | None -> t.back <- Some c);
  t.front <- Some c

let drop t c =
  unlink t c;
  Hashtbl.remove t.table c.key;
  t.used_pages <- t.used_pages - c.pages;
  t.used_bytes <- t.used_bytes - c.bytes;
  gauge_add m_pages (-c.pages);
  gauge_add m_bytes (-c.bytes)

let evict_lru t =
  match t.back with
  | None -> ()
  | Some c ->
      drop t c;
      t.evictions <- t.evictions + 1;
      Metrics.incr m_evictions

(* --- Invalidation -------------------------------------------------------- *)

let note_update ?(subtree = false) t dn = Vtrie.bump ~subtree t.trie dn

(* The generation safety net: any mutation that reached the attached
   directory without a hook notification invalidates everything. *)
let sync t =
  match t.dir with
  | Some d when Directory.generation d <> t.seen_generation ->
      t.seen_generation <- Directory.generation d;
      Vtrie.bump_all t.trie
  | _ -> ()

let detach t =
  t.unsubscribe ();
  t.unsubscribe <- ignore;
  t.dir <- None

let attach t dir =
  detach t;
  t.dir <- Some dir;
  t.seen_generation <- Directory.generation dir;
  t.unsubscribe <-
    Directory.on_update dir (fun (u : Directory.update) ->
        t.seen_generation <- Directory.generation dir;
        note_update ~subtree:u.Directory.subtree t u.Directory.dn)

(* --- Lookup / store ------------------------------------------------------- *)

let key ~fingerprint ~query = fingerprint ^ "\x00" ^ query

let current_stamps t = function
  | Footprint.Whole -> [| Vtrie.epoch t.trie |]
  | Footprint.Bases bs -> Array.of_list (List.map (Vtrie.stamp t.trie) bs)

let is_fresh t c = current_stamps t c.footprint = c.stamps

let find t ~fingerprint ~query =
  sync t;
  match Hashtbl.find_opt t.table (key ~fingerprint ~query) with
  | None ->
      t.misses <- t.misses + 1;
      Metrics.incr m_misses;
      Miss
  | Some c when is_fresh t c ->
      t.hits <- t.hits + 1;
      Metrics.incr m_hits;
      unlink t c;
      push_front t c;
      Hit c.result
  | Some c ->
      t.stale <- t.stale + 1;
      Metrics.incr m_stale;
      drop t c;
      Stale

(* Read-only probe for the planner: is a fresh result available?  No
   counters move and the LRU order stays put — pricing an access path
   must not look like serving a query, or planning a query that then
   scans would still rejuvenate (and account) a cache entry it never
   used.  Staleness is respected but the stale entry is left for the
   next real lookup to collect. *)
let peek t ~fingerprint ~query =
  sync t;
  match Hashtbl.find_opt t.table (key ~fingerprint ~query) with
  | Some c when is_fresh t c -> Some c.result
  | _ -> None

let store t ~fingerprint ~query ~footprint ~cost_io ~pages result =
  sync t;
  if cost_io < t.admit_min_io || pages > t.budget_pages then begin
    t.rejects <- t.rejects + 1;
    Metrics.incr m_rejects;
    false
  end
  else begin
    let k = key ~fingerprint ~query in
    (match Hashtbl.find_opt t.table k with
    | Some old -> drop t old
    | None -> ());
    while t.used_pages + pages > t.budget_pages do
      evict_lru t
    done;
    let c =
      {
        key = k;
        query;
        footprint;
        stamps = current_stamps t footprint;
        result;
        pages;
        bytes = Array.fold_left (fun n e -> n + Entry.byte_size e) 0 result;
        prev = None;
        next = None;
      }
    in
    Hashtbl.replace t.table k c;
    push_front t c;
    t.used_pages <- t.used_pages + c.pages;
    t.used_bytes <- t.used_bytes + c.bytes;
    gauge_add m_pages c.pages;
    gauge_add m_bytes c.bytes;
    true
  end

(* --- Maintenance ---------------------------------------------------------- *)

let rec clear t =
  match t.back with
  | None -> ()
  | Some c ->
      drop t c;
      clear t

let budget_pages t = t.budget_pages

let set_budget_pages t n =
  t.budget_pages <- max 0 n;
  while t.used_pages > t.budget_pages do
    evict_lru t
  done

let admit_min_io t = t.admit_min_io
let set_admit_min_io t n = t.admit_min_io <- n

(* --- Stats ------------------------------------------------------------------ *)

type stats = {
  hits : int;
  misses : int;
  stale : int;
  evictions : int;
  rejects : int;
  entries : int;
  used_pages : int;
  used_bytes : int;
  budget_pages : int;
  admit_min_io : int;
}

let stats (t : t) =
  {
    hits = t.hits;
    misses = t.misses;
    stale = t.stale;
    evictions = t.evictions;
    rejects = t.rejects;
    entries = Hashtbl.length t.table;
    used_pages = t.used_pages;
    used_bytes = t.used_bytes;
    budget_pages = t.budget_pages;
    admit_min_io = t.admit_min_io;
  }

let hit_rate s =
  let looked = s.hits + s.misses + s.stale in
  if looked = 0 then 0. else float_of_int s.hits /. float_of_int looked

(* The stats record as JSON, for the introspection server's /cache
   route (and anything else that wants a machine-readable snapshot). *)
let stats_json (t : t) =
  let s = stats t in
  let num n = Json.Num (float_of_int n) in
  Json.Obj
    [
      ("hits", num s.hits);
      ("misses", num s.misses);
      ("stale", num s.stale);
      ("hit_rate", Json.Num (hit_rate s));
      ("evictions", num s.evictions);
      ("rejects", num s.rejects);
      ("entries", num s.entries);
      ("used_pages", num s.used_pages);
      ("used_bytes", num s.used_bytes);
      ("budget_pages", num s.budget_pages);
      ("admit_min_io", num s.admit_min_io);
    ]

let pp_stats ppf s =
  Fmt.pf ppf
    "hits=%d misses=%d stale=%d (hit rate %.1f%%)@ entries=%d pages=%d/%d \
     bytes=%d@ evictions=%d admission_rejects=%d threshold_io=%d"
    s.hits s.misses s.stale
    (100. *. hit_rate s)
    s.entries s.used_pages s.budget_pages s.used_bytes s.evictions s.rejects
    s.admit_min_io

let pp ppf t = pp_stats ppf (stats t)
