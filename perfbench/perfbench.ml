(* The repository benchmark.

     perfbench.exe --workload serve_small|engine_large|cache_rw
                   --seed N --seconds S --trace 0|1 [--counts]

   With --trace 0 the workload runs untraced and reports the end-to-end
   metrics; with --trace 1 it runs its traced passes and reports the
   per-layer metrics, the tracing overhead, a per-span self-time table
   and a Chrome trace-event dump under .bench_out/.  --counts runs only
   the deterministic part of the traced run (the self-test compares it
   across runs and seeds).  The last line of standard output is a JSON
   summary; the exit code is non-zero when any output was wrong.

   [--serve-child] is internal: serve_small's server process. *)

let end_to_end =
  [
    ("setup_s", "s"); ("ops_per_s", "1/s"); ("p50_ms", "ms"); ("p99_ms", "ms");
    ("peak_heap_mb", "MB");
  ]

let per_layer =
  [
    ("srv.transport_us.p50", "us"); ("srv.transport_us.p99", "us");
    ("srv.server_wall_us.p50", "us"); ("srv.server_wall_us.p99", "us");
    ("srv.peak_queue_depth", "count"); ("srv.inflight_cap", "count");
    ("srv.rows_per_query", "rows"); ("srv.bytes_per_query", "bytes");
    ("srv.unattributed_us", "us"); ("paced_p50_ms", "ms");
    ("paced_p99_ms", "ms"); ("loadgen.lag_p99_ms", "ms");
    ("qlog.bytes_per_query", "bytes"); ("qlog.us_per_query", "us");
    ("qparser.parse_us", "us"); ("plan.estimate_us", "us");
    ("plan.fingerprint_us", "us");
    ("engine.eval_us.l0", "us"); ("engine.eval_us.l1", "us");
    ("engine.eval_us.l2", "us"); ("engine.eval_us.l3", "us");
    ("engine.alloc_kb", "KiB"); ("engine.minor_gcs", "count");
    ("io.page_reads", "pages"); ("io.page_writes", "pages");
    ("io.max_resident_pages", "pages");
    ("planner.index_share", "ratio"); ("planner.scan_share", "ratio");
    ("planner.cache_share", "ratio");
    ("cache.hits", "count"); ("cache.hit_rate", "ratio");
    ("cache.stale_per_write", "ratio"); ("cache.evictions", "count");
    ("cache.reject_rate", "ratio"); ("cache.used_pages", "pages");
    ("index.refreshes_per_write", "ratio"); ("index.read_after_write_ms", "ms");
    ("index.read_steady_ms", "ms"); ("directory.modify_us", "us");
    ("write_p99_ms", "ms"); ("trace.overhead_pct", "%");
  ]

(* Mean span time per call of the layers every traced run wraps. *)
let span_means =
  [
    ("qparser.parse_us", "qparser.parse");
    ("plan.estimate_us", "plan.estimate");
    ("plan.fingerprint_us", "plan.fingerprint");
  ]

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload serve_small|engine_large|cache_rw \
     --seed N --seconds S --trace 0|1 [--counts]";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 30. in
  let trace = ref false and counts = ref false in
  let rec parse = function
    | [] -> ()
    | [ "--serve-child" ] ->
        Serve_small.child ();
        exit 0
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: s :: rest -> seed := int_of_string s; parse rest
    | "--seconds" :: s :: rest -> seconds := float_of_string s; parse rest
    | "--trace" :: ("0" | "1" as t) :: rest -> trace := t = "1"; parse rest
    | "--counts" :: rest -> counts := true; trace := true; parse rest
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !seconds <= 0. then usage ();
  let seed = !seed and seconds = !seconds in
  let run, traced =
    match !workload with
    | "serve_small" -> (Serve_small.run, Serve_small.traced)
    | "engine_large" -> (Engine_large.run, Engine_large.traced)
    | "cache_rw" -> (Cache_rw.run, Cache_rw.traced)
    | _ -> usage ()
  in
  Report.note "workload %s, seed %d, %s" !workload seed
    (if !trace then "traced run" else Printf.sprintf "%.0f s measured" seconds);
  if not !trace then begin
    run ~seed ~seconds;
    Report.emit ~keep:end_to_end
  end
  else begin
    traced ~seed ~counts_only:!counts;
    List.iter
      (fun (metric, span) ->
        let calls, total, _ = Spans.stats span in
        if calls > 0 then
          Report.add ~samples:calls metric "us"
            (total *. 1e6 /. float_of_int calls))
      span_means;
    List.iter
      (fun (name, unit) ->
        if not (Report.has name) then Report.add name unit 0.)
      per_layer;
    if not !counts then begin
      Serve_small.ensure_out_dir ();
      let path =
        Printf.sprintf "%s/trace-%s-seed%d.json" Serve_small.out_dir !workload
          seed
      in
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc (Spans.chrome_json ()));
      print_string (Spans.self_table ());
      Report.note "span dump (Chrome trace-event JSON, first %d operations): %s"
        Spans.keep_ops path
    end;
    Report.emit ~keep:per_layer
  end;
  exit (if Report.correct () then 0 else 1)
