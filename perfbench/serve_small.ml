(* serve_small: an Srv server in its own process over a 2,000-entry
   instance, 2 workers, Qlog journal on, driven over 2 line-protocol
   connections: first an open loop at a fixed 50 req/s timed from each
   request's scheduled send, then a closed loop.  Queries are cheap
   here, so transport, admission, journaling and worker scheduling
   dominate. *)

let size = 2_000
let workers = 2
let conns = 2
let open_rate = 50.
let open_share = 1. /. 3.
let stream_len = 2_000
let warmup = 100
let setup_reps = 9
let traced_open = 1_000
let traced_closed = 1_000
let journal_max_bytes = 16 lsl 20

let out_dir = ".bench_out"

let ensure_out_dir () =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755

let remove_journal path =
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ path; path ^ ".1" ]

(* --- The server process --------------------------------------------------- *)

(* Run as the server: set up (instance generation, index build, server
   start), announce the port and serve.  A [HEAP] line on stdin asks for
   the peak heap so far; any other line or EOF stops the server, which
   then reports the median of [setup_reps] setups and the journal's
   size. *)
let child () =
  ensure_out_dir ();
  let journal = Printf.sprintf "%s/serve-%d.jsonl" out_dir (Unix.getpid ()) in
  Qlog.enable ~append:false ~max_bytes:journal_max_bytes journal;
  (* Engines are built before the server starts (each worker takes
     one), so the timed setup includes the index build. *)
  let start () =
    let instance = Inputs.instance ~size in
    let engines = ref (List.init workers (fun _ -> Engine.create instance)) in
    let mu = Mutex.create () in
    let take () =
      Mutex.protect mu (fun () ->
          match !engines with
          | e :: rest ->
              engines := rest;
              e
          | [] -> Engine.create instance)
    in
    Srv.start ~workers ~make_engine:take ()
  in
  let t0 = Timing.now () in
  let srv = start () in
  let first = Timing.now () -. t0 in
  Printf.printf "READY %d\n%!" (Srv.port srv);
  let rec serve () =
    match input_line stdin with
    | "HEAP" ->
        Printf.printf "HEAP %.17g\n%!" (Timing.peak_heap_mb ());
        serve ()
    | _ | (exception End_of_file) -> ()
  in
  serve ();
  let journal_bytes = Qlog.sink_bytes () in
  Srv.stop srv;
  let extra = Timing.setups ~release:Srv.stop (setup_reps - 1) start in
  Qlog.disable ();
  remove_journal journal;
  Printf.printf "DONE %.17g %d\n%!"
    (Timing.median_of_list (first :: extra))
    journal_bytes

type server = {
  pid : int;
  ic : in_channel;
  oc : out_channel;
  port : int;
  mutable running : bool;
}

let spawn () =
  let exe = Sys.executable_name in
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe
      [| exe; "--serve-child" |]
      in_r out_w Unix.stderr
  in
  Unix.close in_r;
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out_r
  and oc = Unix.out_channel_of_descr in_w in
  let s = { pid; ic; oc; port = 0; running = true } in
  match Scanf.sscanf (input_line ic) "READY %d" Fun.id with
  | port -> { s with port }
  | exception e ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      raise e

let peak_heap s =
  output_string s.oc "HEAP\n";
  flush s.oc;
  Scanf.sscanf (input_line s.ic) "HEAP %f" Fun.id

(* Stop the server; returns (median setup s, journal bytes). *)
let stop s =
  s.running <- false;
  output_string s.oc "STOP\n";
  flush s.oc;
  let r = Scanf.sscanf (input_line s.ic) "DONE %f %d" (fun a b -> (a, b)) in
  close_out s.oc;
  close_in s.ic;
  ignore (Unix.waitpid [] s.pid);
  r

let kill s =
  if s.running then begin
    s.running <- false;
    (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] s.pid);
    close_out_noerr s.oc;
    close_in_noerr s.ic
  end

(* --- The load generator --------------------------------------------------- *)

type outcome =
  | Served
  | Wrong of string * string
      (* reason and detail: rows that differ from the in-process
         engine's, or an error reply to a query valid by construction *)
  | Failed of string  (* busy, deadline or lost *)

(* One request. *)
type req = {
  idx : int;  (* stream index *)
  due : float;  (* scheduled send (open loop) or actual send (closed) *)
  sent : float;
  done_ : float;
  wall_us : int;  (* the server's trailer wall time *)
  rows : int;
  bytes : int;
  outcome : outcome;
  queued : bool;  (* open loop: the connection was still busy at [due] *)
}

type ctx = {
  port : int;
  queries : string array;
  expected : string list array;
}

let classify ctx i (reply : Srv_client.reply) =
  match reply.Srv_client.status with
  | Srv_client.Ok ->
      if reply.Srv_client.rows = ctx.expected.(i mod stream_len) then Served
      else Wrong ("mismatch", "served rows differ from Engine.eval")
  | Srv_client.Busy _ -> Failed "busy"
  | Srv_client.Deadline -> Failed "deadline"
  | Srv_client.Error msg -> Wrong ("error", msg)

let lost = Failed "lost"

(* A request never sent because its connection was lost. *)
let unsent idx due =
  { idx; due; sent = due; done_ = due; wall_us = 0; rows = 0; bytes = 0;
    outcome = lost; queued = false }

(* Send stream query [i]; [due] is its scheduled send in an open loop. *)
let send ctx conn i ?due ~queued () =
  let sent = Timing.now () in
  match
    Spans.with_span ~lane:"client" "srv_client.query" (fun () ->
        Srv_client.query conn ctx.queries.(i mod stream_len))
  with
  | reply ->
      let done_ = Timing.now () in
      let rows = reply.Srv_client.rows in
      {
        idx = i; due = Option.value due ~default:sent; sent; done_;
        wall_us = reply.Srv_client.wall_us; rows = List.length rows;
        bytes = List.fold_left (fun b r -> b + String.length r + 1) 0 rows;
        outcome = classify ctx i reply; queued;
      }
  | exception Srv_client.Disconnected ->
      { (unsent i (Option.value due ~default:sent)) with
        sent; done_ = Timing.now (); queued }

(* Open loop: request [k] (stream index [base + k]) is due at
   [start + k/rate] on connection [k mod conns]; latency runs from due. *)
let open_phase ctx conns_ ~base ~n =
  let start = Timing.now () +. 0.02 in
  let results = Array.make n None in
  let worker c conn =
    let k = ref c in
    let alive = ref true in
    while !k < n do
      let due = start +. (float_of_int !k /. open_rate) in
      if !alive then begin
        let queued = Timing.now () > due in
        Timing.sleep_until due;
        let r =
          Spans.op (base + !k) (fun () ->
              send ctx conn (base + !k) ~due ~queued ())
        in
        if r.outcome = lost then alive := false;
        results.(!k) <- Some r
      end
      else results.(!k) <- Some (unsent (base + !k) due);
      k := !k + conns
    done
  in
  let threads =
    List.mapi (fun c conn -> Thread.create (worker c) conn) conns_
  in
  List.iter Thread.join threads;
  Array.to_list results |> List.filter_map Fun.id

(* Closed loop over every connection until [stop] or until [limit]
   requests were sent, taking stream indices from a shared counter.
   Returns the requests in no particular order. *)
let closed_phase ctx conns_ ~base ~stop ~limit =
  let next = Atomic.make 0 in
  let worker conn =
    let acc = ref [] in
    let rec go () =
      let k = Atomic.fetch_and_add next 1 in
      if k < limit && Timing.now () < stop then begin
        let r =
          Spans.op (base + k) (fun () ->
              send ctx conn (base + k) ~queued:false ())
        in
        acc := r :: !acc;
        if r.outcome <> lost then go ()
      end
    in
    go ();
    !acc
  in
  let results = ref [] and mu = Mutex.create () in
  let threads =
    List.map
      (fun conn ->
        Thread.create
          (fun conn ->
            let l = worker conn in
            Mutex.protect mu (fun () -> results := l @ !results))
          conn)
      conns_
  in
  List.iter Thread.join threads;
  !results

let account reqs =
  List.iter
    (fun r ->
      Report.attempt ();
      match r.outcome with
      | Served -> ()
      | Wrong (reason, what) -> Report.wrong reason what
      | Failed why -> Report.fail why)
    reqs

let latencies reqs =
  let s = Timing.samples () in
  List.iter
    (fun r -> if r.outcome <> lost then Timing.push s (r.done_ -. r.due))
    reqs;
  Timing.sorted s

(* Peak admission-queue depth, sampled from /healthz every 50 ms. *)
let depth_sampler port =
  let running = Atomic.make true and peak = Atomic.make 0 in
  let th =
    Thread.create
      (fun () ->
        while Atomic.get running do
          (try
             let status, _, body = Monitor.request ~port "/healthz" in
             if status = 200 then
               match Json.member "queue_depth" (Json.of_string body) with
               | Json.Num d ->
                   Atomic.set peak (max (Atomic.get peak) (int_of_float d))
               | _ -> ()
           with _ -> ());
          Thread.delay 0.05
        done)
      ()
  in
  fun () ->
    Atomic.set running false;
    Thread.join th;
    Atomic.get peak

(* The query stream: a fixed set of [stream_len] Query_mix queries in
   an order the run seed deals.  The set is the same for every seed:
   which queries return rows decides which requests stall on delayed
   ACKs, and with a seeded set the median latency moved with each
   seed's share of them (0.44 ms for one seed, 0.52 ms for another, run
   after run). *)
let stream_mix_seed = 1

let stream seed instance =
  let queries =
    Query_mix.generate ~seed:stream_mix_seed ~count:stream_len instance
  in
  Inputs.shuffle (Prng.create (Inputs.sub seed 1)) queries;
  queries

(* Shared set-up of both runs: the same instance and stream the server
   sees, the expected rows from an in-process engine, the server and
   its connections (warmed up).  [f] runs the phases. *)
let with_server seed f =
  let instance = Inputs.instance ~size in
  let engine = Engine.create instance in
  let queries = stream seed instance in
  let expected =
    Array.map (fun q -> Inputs.dns (snd (Engine.eval_string engine q))) queries
  in
  let srv = spawn () in
  Fun.protect ~finally:(fun () -> kill srv) @@ fun () ->
  let ctx = { port = srv.port; queries; expected } in
  let cs = List.init conns (fun _ -> Srv_client.connect ~port:srv.port ()) in
  let r =
    Fun.protect ~finally:(fun () -> List.iter Srv_client.close cs) @@ fun () ->
    for i = 0 to warmup - 1 do
      ignore (Srv_client.query (List.nth cs (i mod conns)) queries.(i))
    done;
    f srv instance engine ctx cs
  in
  (r, stop srv)

(* The measured run: the open loop for [open_share] of [seconds],
   then the closed loop.  The server's peak heap is read after the
   fixed-length open phase. *)
let run ~seed ~seconds =
  let ((opened, closed, ops_per_s, heap), (setup_s, journal_bytes)) =
    with_server seed (fun srv _ _ ctx cs ->
        let n_open = int_of_float (open_rate *. seconds *. open_share) in
        let opened = open_phase ctx cs ~base:warmup ~n:n_open in
        let heap = peak_heap srv in
        let c0 = Timing.now () in
        let closed_s = seconds *. (1. -. open_share) in
        let closed =
          closed_phase ctx cs ~base:(warmup + n_open) ~stop:(c0 +. closed_s)
            ~limit:max_int
        in
        let done_ =
          List.filter_map
            (fun r -> if r.outcome = Served then Some r.done_ else None)
            closed
        in
        (opened, closed, Loop.window_rate ~c0 done_, heap))
  in
  account opened;
  account closed;
  Report.add ~samples:setup_reps "setup_s" "s" setup_s;
  Report.add ~samples:(List.length closed) "ops_per_s" "1/s" ops_per_s;
  let lat = latencies closed and paced = latencies opened in
  Report.note
    "serve_small: closed-loop latency p10 %.3f, p25 %.3f, p75 %.3f, p90 %.3f ms"
    (Timing.pct lat 0.1 *. 1e3) (Timing.pct lat 0.25 *. 1e3)
    (Timing.pct lat 0.75 *. 1e3) (Timing.pct lat 0.9 *. 1e3);
  let in_order =
    List.sort (fun a b -> compare a.done_ b.done_) closed
    |> List.filter_map (fun r ->
           if r.outcome = lost then None else Some (r.done_ -. r.due))
    |> Array.of_list
  in
  Report.add_median "p50_ms" in_order;
  Report.add_pct "p99_ms" lat 0.99;
  Report.add_pct "paced_p50_ms" paced 0.5;
  Report.add_pct "paced_p99_ms" paced 0.99;
  Report.add "peak_heap_mb" "MB" heap;
  let lag = Timing.samples () in
  List.iter
    (fun r -> if not r.queued then Timing.push lag (r.sent -. r.due))
    opened;
  let queued = List.length (List.filter (fun r -> r.queued) opened) in
  Report.note
    "serve_small: %d entries, %d workers, journal on (%d bytes, flushed per \
     event); %d connections, strictly pipelined: in-flight cap %d"
    size workers journal_bytes conns conns;
  Report.note
    "serve_small: open loop %d requests at %.0f/s: generator lag p99 %.3f ms \
     over %d idle sends; %d requests found their connection still busy"
    (List.length opened) open_rate
    (Timing.pct (Timing.sorted lag) 0.99 *. 1e3)
    (Timing.count lag) queued

(* In-process replay of [texts] through parse, plan and eval: per
   query the median of three runs, in seconds. *)
let replay engine instance texts =
  List.map
    (fun text ->
      let once () =
        let t = Timing.now () in
        let ast =
          Spans.with_span "qparser.parse" (fun () -> Inputs.parse instance text)
        in
        ignore
          (Spans.with_span "engine.eval" (fun () ->
               Engine.eval_entries engine ast));
        let dt = Timing.now () -. t in
        Spans.with_span "plan.estimate" (fun () ->
            ignore (Explain.estimate engine ast));
        Spans.with_span "plan.fingerprint" (fun () ->
            ignore (Explain.fingerprint ast));
        dt
      in
      (text, Timing.median_of_list [ once (); once (); once () ]))
    texts

let mean_of l =
  List.fold_left (fun a (_, t) -> a +. t) 0. l /. float_of_int (List.length l)

(* Rows and bytes per served query: exact counts, since the server's
   instance is read-only. *)
let add_rows ok =
  let n = float_of_int (List.length ok) in
  let total f = float_of_int (List.fold_left (fun a r -> a + f r) 0 ok) in
  Report.add "srv.rows_per_query" "rows" (total (fun r -> r.rows) /. n);
  Report.add "srv.bytes_per_query" "bytes" (total (fun r -> r.bytes) /. n)

(* The median latency of the requests below [fast_s]: the fast mode of
   a distribution in which a share of requests stalls on delayed ACKs
   (about 40 ms), so that a shift in that share does not pass for the
   cost of the spans. *)
let fast_s = 0.02

let fast_median l =
  let s = Timing.samples () in
  List.iter
    (fun r ->
      let d = r.done_ -. r.sent in
      if r.outcome = Served && d < fast_s then Timing.push s d)
    l;
  Timing.median s

(* The counted closed phase's first stream index. *)
let counted_base = warmup + traced_open + traced_closed

(* The traced run: a fixed-length open loop, a fixed-length closed loop
   untraced and the same length traced, with /healthz sampled
   throughout; then an in-process replay of the served queries with the
   journal off and on.  With [counts_only], only the counted closed
   phase runs, untraced, for its exact counts. *)
let traced ~seed ~counts_only =
  if counts_only then begin
    let reqs, _ =
      with_server seed (fun _ _ _ ctx cs ->
          Report.note "serve_small: query stream digest %s"
            (Inputs.digest_strings (Array.to_list ctx.queries));
          closed_phase ctx cs ~base:counted_base ~stop:infinity
            ~limit:traced_closed)
    in
    account reqs;
    add_rows (List.filter (fun r -> r.outcome = Served) reqs)
  end
  else begin
    let (opened, plain, reqs, peak, instance, engine, queries), _ =
      with_server seed (fun _ instance engine ctx cs ->
          let stop_sampler = depth_sampler ctx.port in
          Fun.protect ~finally:(fun () -> Spans.on := false) @@ fun () ->
          Spans.on := true;
          let opened = open_phase ctx cs ~base:warmup ~n:traced_open in
          Spans.on := false;
          let base = warmup + traced_open in
          let plain =
            closed_phase ctx cs ~base ~stop:infinity ~limit:traced_closed
          in
          Spans.on := true;
          let reqs =
            closed_phase ctx cs ~base:counted_base ~stop:infinity
              ~limit:traced_closed
          in
          Spans.on := false;
          (opened, plain, reqs, stop_sampler (), instance, engine, ctx.queries))
    in
    account opened;
    account plain;
    account reqs;
    let ok = List.filter (fun r -> r.outcome = Served) reqs in
    let sorted f =
      let s = Timing.samples () in
      List.iter (fun r -> Timing.push s (f r)) ok;
      Timing.sorted s
    in
    let transport =
      sorted (fun r -> ((r.done_ -. r.sent) *. 1e6) -. float_of_int r.wall_us)
    and wall = sorted (fun r -> float_of_int r.wall_us) in
    Report.add "srv.transport_us.p50" "us" (Timing.pct transport 0.5);
    Report.add "srv.transport_us.p99" "us" (Timing.pct transport 0.99);
    Report.add "srv.server_wall_us.p50" "us" (Timing.pct wall 0.5);
    Report.add "srv.server_wall_us.p99" "us" (Timing.pct wall 0.99);
    Report.add "srv.peak_queue_depth" "count" (float_of_int peak);
    Report.add "srv.inflight_cap" "count" (float_of_int conns);
    add_rows ok;
    let lag = Timing.samples () in
    List.iter
      (fun r -> if not r.queued then Timing.push lag (r.sent -. r.due))
      opened;
    Report.add "loadgen.lag_p99_ms" "ms"
      (Timing.pct (Timing.sorted lag) 0.99 *. 1e3);
    let paced = latencies opened in
    Report.add_pct "paced_p50_ms" paced 0.5;
    Report.add_pct "paced_p99_ms" paced 0.99;
    Report.add "trace.overhead_pct" "%"
      (100. *. (fast_median reqs -. fast_median plain) /. fast_median plain);
    (* Replay the served queries in-process, journal off then on. *)
    let text r = queries.(r.idx mod stream_len) in
    let texts = List.sort_uniq compare (List.map text ok) in
    Spans.on := true;
    let off = replay engine instance texts in
    Spans.on := false;
    ensure_out_dir ();
    let path = Printf.sprintf "%s/replay-%d.jsonl" out_dir (Unix.getpid ()) in
    Qlog.enable ~append:false path;
    let on, journal_bytes =
      Fun.protect
        ~finally:(fun () ->
          Qlog.disable ();
          remove_journal path)
        (fun () ->
          let on = replay engine instance texts in
          (on, Qlog.sink_bytes ()))
    in
    Report.add "qlog.us_per_query" "us" ((mean_of on -. mean_of off) *. 1e6);
    Report.add "qlog.bytes_per_query" "bytes"
      (float_of_int journal_bytes /. float_of_int (3 * List.length texts));
    let replay_s = Hashtbl.create 512 in
    List.iter (fun (t, s) -> Hashtbl.replace replay_s t s) off;
    let unattributed =
      sorted (fun r ->
          float_of_int r.wall_us -. (Hashtbl.find replay_s (text r) *. 1e6))
    in
    Report.add "srv.unattributed_us" "us" (Timing.pct unattributed 0.5)
  end
