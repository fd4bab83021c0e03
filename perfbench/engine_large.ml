(* engine_large: Engine.eval_string in-process on one thread over a
   16,000-entry instance, with no result cache and no journal.
   Operator execution dominates; Srv, Cache and Qlog are bypassed. *)

let size = 16_000
let stream_len = 3_000
let warmup = 200
let heap_after = 1_000
let check_every = 50
let setup_reps = 3

let setup () =
  let instance = Inputs.instance ~size in
  (instance, Engine.create instance)

let stream seed instance =
  Query_mix.generate ~seed:(Inputs.sub seed 1) ~count:stream_len instance

(* The measured run: a closed loop for [seconds], cycling through the
   stream.  Peak heap is read once [heap_after] operations have run, a
   fixed point, so it does not depend on how many operations the
   machine managed. *)
let run ~seed ~seconds =
  let t0 = Timing.now () in
  let instance, engine = setup () in
  let first_setup = Timing.now () -. t0 in
  let queries = stream seed instance in
  Report.note "engine_large: %d entries, %d-query stream (digest %s)" size
    stream_len (Inputs.digest_strings (Array.to_list queries));
  for i = 0 to warmup - 1 do
    ignore (Engine.eval_string engine queries.(i))
  done;
  let pos = ref warmup and heap = ref None in
  let to_check = ref [] in
  let one () =
    let i = !pos in
    incr pos;
    if i = warmup + heap_after then heap := Some (Timing.peak_heap_mb ());
    let text = queries.(i mod stream_len) in
    Report.attempt ();
    match Engine.eval_string engine text with
    | _, res ->
        let t = Timing.now () in
        if i mod check_every = 0 then
          to_check := Inputs.sample text instance res :: !to_check;
        Some t
    | exception e ->
        Report.wrong "exception" (text ^ ": " ^ Printexc.to_string e);
        None
  in
  let lat, ops_per_s = Loop.closed ~seconds one in
  let heap = Option.value !heap ~default:(Timing.peak_heap_mb ()) in
  Inputs.check "engine_large" (List.rev !to_check);
  let extra = Timing.setups (setup_reps - 1) setup in
  Report.add ~samples:setup_reps "setup_s" "s"
    (Timing.median_of_list (first_setup :: extra));
  Report.add ~samples:(Timing.count lat) "ops_per_s" "1/s" ops_per_s;
  Report.add_median "p50_ms" (Timing.to_array lat);
  Report.add_pct "p99_ms" (Timing.sorted lat) 0.99;
  Report.add "peak_heap_mb" "MB" heap

(* The measurements of one pass over the stream. *)
type pass = {
  busy : float;  (* seconds inside untraced operations *)
  traced_busy : float;  (* seconds inside traced operations *)
  reads : int;
  writes : int;
  resident : int;
  alloc : float;  (* bytes *)
  minors : int;
  by_level : Timing.samples array;  (* eval seconds per language level *)
  paths : int * int * int;  (* index, scan and cache path deltas *)
  to_check : Inputs.sample list;
}

(* One pass over the stream with the traced run's per-query
   bookkeeping.  With [paired], each query runs twice, once with spans
   on and once with them off, the order alternating from query to
   query: the two runs do the same work but for the spans, and the
   pairing cancels drift in machine speed and any warm-up; the counts
   and timings of such a pass count each query twice. *)
let pass ?(paired = false) instance engine queries =
  let stats = Engine.stats engine in
  let reads = ref 0 and writes = ref 0 and resident = ref 0 in
  let alloc = ref 0. and minors = ref 0 in
  let busy = ref 0. and traced_busy = ref 0. in
  let by_level = Array.init 4 (fun _ -> Timing.samples ()) in
  let to_check = ref [] in
  let i0, s0, c0 = Engine.path_counts engine in
  let one i text =
    Report.attempt ();
    let t0 = Timing.now () in
    Spans.op i (fun () ->
        let ast =
          Spans.with_span "qparser.parse" (fun () ->
              Inputs.parse instance text)
        in
        Engine.reset_stats engine;
        let a0 = Gc.allocated_bytes ()
        and m0 = (Gc.quick_stat ()).Gc.minor_collections in
        let t = Timing.now () in
        let res =
          Spans.with_span "engine.eval" (fun () ->
              Engine.eval_entries engine ast)
        in
        let dt = Timing.now () -. t in
        alloc := !alloc +. (Gc.allocated_bytes () -. a0);
        minors := !minors + (Gc.quick_stat ()).Gc.minor_collections - m0;
        Timing.push by_level.(Inputs.level ast) dt;
        reads := !reads + stats.Io_stats.page_reads;
        writes := !writes + stats.Io_stats.page_writes;
        resident := max !resident stats.Io_stats.max_resident_pages;
        if i mod check_every = 0 then
          to_check := Inputs.sample text instance res :: !to_check);
    Timing.now () -. t0
  in
  let plain i text = busy := !busy +. one i text in
  let traced i text =
    Spans.on := true;
    let d = one i text in
    Spans.on := false;
    traced_busy := !traced_busy +. d
  in
  Array.iteri
    (fun i text ->
      if not paired then plain i text
      else if i mod 2 = 0 then (plain i text; traced i text)
      else (traced i text; plain i text))
    queries;
  let i1, s1, c1 = Engine.path_counts engine in
  {
    busy = !busy; traced_busy = !traced_busy; reads = !reads;
    writes = !writes; resident = !resident; alloc = !alloc; minors = !minors; by_level;
    paths = (i1 - i0, s1 - s0, c1 - c0);
    to_check = List.rev !to_check;
  }

(* The traced run: a pass over the whole stream with spans off, which
   gives the exact counts and the per-level timings, then a paired pass,
   which gives the span table and the tracing overhead.  The first pass
   has a fixed length, so its counts repeat for a seed. *)
let traced ~seed ~counts_only =
  let instance, engine = setup () in
  let queries = stream seed instance in
  Report.note "engine_large: stream digest %s"
    (Inputs.digest_strings (Array.to_list queries));
  for i = 0 to warmup - 1 do
    ignore (Engine.eval_string engine queries.(i))
  done;
  let p = pass instance engine queries in
  Inputs.check "engine_large untraced pass" p.to_check;
  let n = float_of_int stream_len in
  let index, scan, cache = p.paths in
  let paths = float_of_int (index + scan + cache) in
  let share d = if paths > 0. then float_of_int d /. paths else 0. in
  Report.add "io.page_reads" "pages" (float_of_int p.reads /. n);
  Report.add "io.page_writes" "pages" (float_of_int p.writes /. n);
  Report.add "io.max_resident_pages" "pages" (float_of_int p.resident);
  Report.add "planner.index_share" "ratio" (share index);
  Report.add "planner.scan_share" "ratio" (share scan);
  Report.add "planner.cache_share" "ratio" (share cache);
  if not counts_only then begin
    Array.iteri
      (fun l s ->
        Report.add ~samples:(Timing.count s)
          (Printf.sprintf "engine.eval_us.l%d" l)
          "us"
          (Timing.mean s *. 1e6))
      p.by_level;
    Report.add "engine.alloc_kb" "KiB" (p.alloc /. n /. 1024.);
    Report.add "engine.minor_gcs" "count" (float_of_int p.minors /. n);
    let t = pass ~paired:true instance engine queries in
    (* Planning calls run in a pass of their own, so their allocation
       does not land on the timed evaluations. *)
    Spans.on := true;
    Array.iter
      (fun text ->
        let ast = Inputs.parse instance text in
        Spans.with_span "plan.estimate" (fun () ->
            ignore (Explain.estimate engine ast));
        Spans.with_span "plan.fingerprint" (fun () ->
            ignore (Explain.fingerprint ast)))
      queries;
    Spans.on := false;
    Inputs.check "engine_large paired pass" t.to_check;
    Report.add "trace.overhead_pct" "%"
      (100. *. (t.traced_busy -. t.busy) /. t.busy)
  end
