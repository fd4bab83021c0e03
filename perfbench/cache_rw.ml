(* cache_rw: the directory as a read/write service.  A Directory over a
   4,000-entry instance with an attached Cache (default 256-page
   budget) and an Engine built with ~result_cache and ~directory.  95%
   of operations are zipf-skewed reads over a pool of 300 distinct
   queries; 5% are writes, a burst of three every 60 operations: a
   priority replace, the add of a fresh leaf and the delete of the
   previous burst's leaf, so the size stays constant.  The first read
   after each burst pays the engine's index rebuild.  Popularity drifts:
   every 1,000 reads the zipf ranks are dealt to the pool afresh, so a
   run averages over several hot sets instead of hanging on one.  The
   pool is the same for every run seed, like the instance: the seed
   deals the ranks and draws the reads and writes.  A seeded pool made
   the median read's cost a property of the seed's pool (median read
   time 0.05 ms for one seed, 0.07 ms for another, run after run). *)

let size = 4_000
let pool_size = 300
let zipf_s = 1.0
let period = 60
let drift_every = 1_000
let warmup = 600
let heap_after = 1_000
let check_every = 20
let setup_reps = 9
let counted_ops = 6_000
let leaf_base = 1_000_000

type op =
  | Read of int  (* index into the query pool *)
  | Replace of Dn.t * int
  | Add of Entry.t
  | Delete of Dn.t

let op_to_string = function
  | Read i -> Printf.sprintf "read %d" i
  | Replace (dn, v) ->
      Printf.sprintf "replace %s priority=%d" (Dn.to_string dn) v
  | Add e -> "add " ^ Dn.to_string (Entry.dn e)
  | Delete dn -> "delete " ^ Dn.to_string dn

(* The seeded operation stream. *)
type gen = {
  r : Prng.t;
  cdf : float array;  (* zipf over ranks *)
  rank : int array;  (* rank -> pool index, re-dealt every [drift_every] *)
  targets : Dn.t array;  (* generated non-root entries: never deleted *)
  mutable slot : int;
  mutable reads : int;
  mutable pending : op list;
  mutable bursts : int;
  mutable last_leaf : Dn.t;
}

let leaf k parent r =
  let id = leaf_base + k in
  let name = Prng.pick r Dif_gen.default_params.Dif_gen.name_pool in
  Entry.make
    (Dn.child parent (Rdn.single "id" (Value.Int id)))
    [
      ("id", Value.Int id);
      ("surName", Value.Str name);
      ("name", Value.Str name);
      ("priority", Value.Int (Prng.int r 10));
      (Schema.object_class, Value.Str "person");
    ]

let uniform r = float_of_int (Prng.int r (1 lsl 30)) /. float_of_int (1 lsl 30)

let zipf_rank g =
  let u = uniform g.r in
  let lo = ref 0 and hi = ref (Array.length g.cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if g.cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

let next g =
  let slot = g.slot in
  g.slot <- slot + 1;
  match g.pending with
  | op :: rest ->
      g.pending <- rest;
      op
  | [] when slot mod period = 0 ->
      g.bursts <- g.bursts + 1;
      let e = leaf g.bursts (Prng.pick g.r g.targets) g.r in
      let replace = Replace (Prng.pick g.r g.targets, Prng.int g.r 10) in
      g.pending <- [ Add e; Delete g.last_leaf ];
      g.last_leaf <- Entry.dn e;
      replace
  | [] ->
      if g.reads > 0 && g.reads mod drift_every = 0 then
        Inputs.shuffle g.r g.rank;
      g.reads <- g.reads + 1;
      Read g.rank.(zipf_rank g)

type state = {
  dir : Directory.t;
  cache : Cache.t;
  engine : Engine.t;
  pool : string array;
  gen : gen;
}

(* [pool_size] distinct Query_mix queries, from a fixed mix seed. *)
let pool_seed = 2

let pool instance =
  let seen = Hashtbl.create 512 in
  Query_mix.generate ~seed:pool_seed ~count:(4 * pool_size) instance
  |> Array.to_list
  |> List.filter (fun q ->
         (not (Hashtbl.mem seen q)) && (Hashtbl.add seen q (); true))
  |> List.filteri (fun i _ -> i < pool_size)
  |> Array.of_list

(* The program's set-up, which [setup_s] times: instance generation,
   index build and cache attach. *)
let setup () =
  let instance = Inputs.instance ~size in
  let dir = Directory.create instance in
  let cache = Cache.create () in
  Cache.attach cache dir;
  (dir, cache, Engine.create ~result_cache:cache ~directory:dir instance)

(* A fresh set-up and its seeded operation stream, with the first leaf
   added; returns the state ready for the stream and the set-up's wall
   time. *)
let start seed =
  let t0 = Timing.now () in
  let dir, cache, engine = setup () in
  let setup_s = Timing.now () -. t0 in
  let instance = Directory.instance dir in
  let targets =
    Instance.to_list instance
    |> List.filter (fun e -> Dn.depth (Entry.dn e) > 1)
    |> List.map Entry.dn |> Array.of_list
  in
  let pool = pool instance in
  let weights =
    Array.init (Array.length pool) (fun i ->
        1. /. (float_of_int (i + 1) ** zipf_s))
  in
  let total = Array.fold_left ( +. ) 0. weights in
  let acc = ref 0. in
  let cdf =
    Array.map
      (fun w ->
        acc := !acc +. (w /. total);
        !acc)
      weights
  in
  cdf.(Array.length cdf - 1) <- 1.;
  let r = Prng.create (Inputs.sub seed 3) in
  let first = leaf 0 (Prng.pick r targets) r in
  (match Directory.add dir first with
  | Ok () -> ()
  | Error e -> failwith (Format.asprintf "%a" Directory.pp_error e));
  let rank = Array.init (Array.length pool) Fun.id in
  Inputs.shuffle r rank;
  let gen =
    { r; cdf; rank; targets; slot = 0; reads = 0; pending = []; bursts = 0;
      last_leaf = Entry.dn first }
  in
  ({ dir; cache; engine; pool; gen }, setup_s)

let apply st op =
  let result =
    match op with
    | Replace (dn, v) ->
        Directory.modify st.dir dn
          [ Directory.Replace ("priority", [ Value.Int v ]) ]
    | Add e -> Directory.add st.dir e
    | Delete dn -> Directory.delete st.dir dn
    | Read _ -> Ok ()
  in
  match result with
  | Ok () -> ()
  | Error e ->
      Report.wrong "write error"
        (Format.asprintf "%s: %a" (op_to_string op) Directory.pp_error e)

(* Per-phase measurements of one operation stream. *)
type acc = {
  reads : Timing.samples;
  writes : Timing.samples;
  after_write : Timing.samples;  (* reads right after a write burst *)
  steady : Timing.samples;  (* every other read *)
  modify : Timing.samples;  (* Directory.modify calls *)
  mutable dirty : bool;
  mutable n_reads : int;
  mutable n_writes : int;
  mutable to_check : Inputs.sample list;
}

let acc () =
  {
    reads = Timing.samples (); writes = Timing.samples ();
    after_write = Timing.samples (); steady = Timing.samples ();
    modify = Timing.samples (); dirty = false; n_reads = 0;
    n_writes = 0;
    to_check = [];
  }

(* Execute one operation, recording its latency; returns its completion
   instant.  Spans (when on) wrap each layer call. *)
let exec st a op =
  Report.attempt ();
  let t = Timing.now () in
  (match op with
  | Read i -> (
      let text = st.pool.(i) in
      match
        let ast =
          Spans.with_span "qparser.parse" (fun () ->
              Inputs.parse (Engine.instance st.engine) text)
        in
        ( ast,
          Spans.with_span "engine.eval" (fun () ->
              Engine.eval_entries st.engine ast) )
      with
      | _, res ->
          let dt = Timing.now () -. t in
          Timing.push a.reads dt;
          Timing.push (if a.dirty then a.after_write else a.steady) dt;
          a.dirty <- false;
          a.n_reads <- a.n_reads + 1;
          if a.n_reads mod check_every = 0 then
            a.to_check <-
              Inputs.sample text (Directory.instance st.dir) res :: a.to_check
      | exception e ->
          Report.wrong "exception" (text ^ ": " ^ Printexc.to_string e))
  | Replace _ | Add _ | Delete _ ->
      let name =
        match op with
        | Replace _ -> "directory.modify"
        | Add _ -> "directory.add"
        | _ -> "directory.delete"
      in
      Spans.with_span name (fun () -> apply st op);
      let dt = Timing.now () -. t in
      Timing.push a.writes dt;
      (match op with Replace _ -> Timing.push a.modify dt | _ -> ());
      a.dirty <- true;
      a.n_writes <- a.n_writes + 1);
  Timing.now ()

(* The measured run: a closed loop for [seconds] (reads for the
   percentiles, reads and writes for throughput).  Peak heap is read
   once [heap_after] operations have run, a fixed point. *)
let run ~seed ~seconds =
  let st, first_setup = start seed in
  Report.note
    "cache_rw: %d entries, pool of %d queries, zipf s=%.1f, budget %d pages"
    size (Array.length st.pool) zipf_s (Cache.budget_pages st.cache);
  let warm = acc () in
  for _ = 1 to warmup do
    ignore (exec st warm (next st.gen))
  done;
  let a = acc () and n = ref 0 and heap = ref None in
  let _, ops_per_s =
    Loop.closed ~seconds (fun () ->
        incr n;
        if !n = heap_after then heap := Some (Timing.peak_heap_mb ());
        Some (exec st a (next st.gen)))
  in
  let heap = Option.value !heap ~default:(Timing.peak_heap_mb ()) in
  Inputs.check "cache_rw" (List.rev (a.to_check @ warm.to_check));
  let pool_pages =
    Array.fold_left
      (fun n text ->
        let rows = snd (Engine.eval_string st.engine text) in
        n + ((List.length rows + 63) / 64))
      0 st.pool
  in
  let extra = Timing.setups (setup_reps - 1) setup in
  Report.add ~samples:setup_reps "setup_s" "s"
    (Timing.median_of_list (first_setup :: extra));
  Report.add ~samples:(a.n_reads + a.n_writes) "ops_per_s" "1/s" ops_per_s;
  Report.add_median "p50_ms" (Timing.to_array a.reads);
  Report.add_pct "p99_ms" (Timing.sorted a.reads) 0.99;
  Report.add "peak_heap_mb" "MB" heap;
  Report.note
    "cache_rw: pool results total %d pages at 64 entries a page, against a \
     %d-page cache budget"
    pool_pages (Cache.budget_pages st.cache);
  Report.note "cache_rw: %d reads, %d writes" a.n_reads a.n_writes;
  Report.add_pct "write_p99_ms" (Timing.sorted a.writes) 0.99

let refreshes () =
  Metrics.counter_value (Metrics.counter "engine_index_refreshes_total")

(* The counted pass: [counted_ops] operations after warm-up, from a
   fresh setup, so every count repeats for a seed.  Returns the
   operations' measurements, the stream digest and the exact counts. *)
let pass ~seed ~spans =
  let st, _ = start seed in
  let warm = acc () in
  for _ = 1 to warmup do
    ignore (exec st warm (next st.gen))
  done;
  let a = acc () in
  let c0 = Cache.stats st.cache and r0 = refreshes () in
  let i0, s0, k0 = Engine.path_counts st.engine in
  let stats = Engine.stats st.engine in
  let reads = ref 0 and writes = ref 0 and resident = ref 0 in
  let ops = Buffer.create 65536 in
  Spans.on := spans;
  for i = 0 to counted_ops - 1 do
    let op = next st.gen in
    Buffer.add_string ops (op_to_string op);
    Buffer.add_char ops '\n';
    Engine.reset_stats st.engine;
    Spans.op i (fun () -> ignore (exec st a op));
    match op with
    | Read _ ->
        reads := !reads + stats.Io_stats.page_reads;
        writes := !writes + stats.Io_stats.page_writes;
        resident := max !resident stats.Io_stats.max_resident_pages
    | Replace _ | Add _ | Delete _ -> ()
  done;
  let c1 = Cache.stats st.cache and i1, s1, k1 = Engine.path_counts st.engine in
  let r1 = refreshes () in
  (* Planning calls over the pool run in a pass of their own, after the
     counted one, so they neither perturb the cache nor land on the
     timed operations. *)
  if spans then
    Array.iter
      (fun text ->
        let ast = Inputs.parse (Engine.instance st.engine) text in
        Spans.with_span "plan.estimate" (fun () ->
            ignore (Explain.estimate st.engine ast));
        Spans.with_span "plan.fingerprint" (fun () ->
            ignore (Explain.fingerprint ast)))
      st.pool;
  Spans.on := false;
  Inputs.check
    (if spans then "cache_rw traced pass" else "cache_rw untraced pass")
    (List.rev a.to_check);
  let ratio x y = if y > 0 then float_of_int x /. float_of_int y else 0. in
  let hits = c1.hits - c0.hits and stale = c1.stale - c0.stale in
  let misses = c1.misses - c0.misses in
  let paths = i1 - i0 + (s1 - s0) + (k1 - k0) in
  let counts =
    [
      ("cache.hits", "count", float_of_int hits);
      ("cache.hit_rate", "ratio", ratio hits (hits + misses + stale));
      ("cache.stale_per_write", "ratio", ratio stale a.n_writes);
      ("cache.evictions", "count", float_of_int (c1.evictions - c0.evictions));
      ( "cache.reject_rate", "ratio",
        ratio (c1.rejects - c0.rejects) (misses + stale) );
      ("cache.used_pages", "pages", float_of_int c1.used_pages);
      ("index.refreshes_per_write", "ratio", ratio (r1 - r0) a.n_writes);
      ("io.page_reads", "pages", ratio !reads a.n_reads);
      ("io.page_writes", "pages", ratio !writes a.n_reads);
      ("io.max_resident_pages", "pages", float_of_int !resident);
      ("planner.index_share", "ratio", ratio (i1 - i0) paths);
      ("planner.scan_share", "ratio", ratio (s1 - s0) paths);
      ("planner.cache_share", "ratio", ratio (k1 - k0) paths);
    ]
  in
  (a, Digest.to_hex (Digest.string (Buffer.contents ops)), counts)

(* The traced run: the counted pass with spans off, which gives the
   exact counts and the per-layer timings, then the same pass with spans
   on, which gives the span table, then once more with spans off.  The
   tracing overhead sets the median steady read of the traced pass
   against that of the two untraced ones: a pass's total time is mostly
   index rebuilds, whose run-to-run noise is larger than the spans'
   cost, and a steady drift in machine speed cancels. *)
let traced ~seed ~counts_only =
  let a, digest, counts = pass ~seed ~spans:false in
  Report.note "cache_rw: operation stream digest %s (%d reads, %d writes)"
    digest a.n_reads a.n_writes;
  List.iter (fun (name, unit, v) -> Report.add name unit v) counts;
  if not counts_only then begin
    Report.add ~samples:(Timing.count a.after_write) "index.read_after_write_ms"
      "ms" (Timing.median a.after_write *. 1e3);
    Report.add ~samples:(Timing.count a.steady) "index.read_steady_ms" "ms"
      (Timing.median a.steady *. 1e3);
    Report.add ~samples:(Timing.count a.modify) "directory.modify_us" "us"
      (Timing.median a.modify *. 1e6);
    Report.add_pct "write_p99_ms" (Timing.sorted a.writes) 0.99;
    let t, _, _ = pass ~seed ~spans:true in
    let b, _, _ = pass ~seed ~spans:false in
    let plain = (Timing.median a.steady +. Timing.median b.steady) /. 2. in
    Report.add "trace.overhead_pct" "%"
      (100. *. (Timing.median t.steady -. plain) /. plain)
  end
