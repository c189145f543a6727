(* The traced run: the workload's calls made in process, with a span
   around each call into a layer's public functions.

   Batch workloads fork one child per instance.  The child makes the
   CLI's calls in the CLI's order (parse, create, solve, and for
   certify the proof write and check); a second child per instance
   times the streaming path (Dimacs.fold_clauses, Solver.load_file) on
   the same file.  Serve replays the request scripts twice: over the
   daemon's socket with the blocking client (client-observed latency
   per op), then in process through Server.handle_line (service time).

   Spans are kept in memory, written to DIR/spans.jsonl at the end, and
   summed into per-layer metrics, layer shares of the pass wall time and
   the predicted-share checks, printed as one JSON object. *)

open Berkmin_types
module Solver = Berkmin.Solver
module Config = Berkmin.Config
module Stats = Berkmin.Stats
module Dimacs = Berkmin_dimacs.Dimacs
module Drup = Berkmin_proof.Drup
module Server = Berkmin_server.Server
module Client = Berkmin_server.Client

(* ------------------------------------------------------------------ *)
(* Spans *)

type span = {
  id : int;
  parent : int;  (** -1 at the root *)
  group : int;  (** shared by every span of one instance or request *)
  name : string;
  instance : string;
  t0 : float;
  t1 : float;
}

let spans = ref []
let next_id = ref 0
let current = ref (-1)
let group = ref 0
let instance = ref ""
let now = Unix.gettimeofday

let with_span name f =
  let id = !next_id in
  incr next_id;
  let parent = !current in
  current := id;
  let t0 = now () in
  let finish () =
    current := parent;
    spans :=
      { id; parent; group = !group; name; instance = !instance; t0; t1 = now () }
      :: !spans
  in
  match f () with
  | v -> finish (); v
  | exception e -> finish (); raise e

let duration s = s.t1 -. s.t0

(* The cost of one span around an empty call, from a timed loop whose
   spans are then discarded. *)
let span_cost () =
  let saved = !spans and saved_id = !next_id and n = 100_000 in
  let t0 = now () in
  for _ = 1 to n do
    with_span "cost" ignore
  done;
  let cost = (now () -. t0) /. float_of_int n in
  spans := saved;
  next_id := saved_id;
  cost

(* Runs [f] in a forked child and returns its value and the spans it
   recorded; the child's span ids continue the parent's sequence. *)
let in_child f =
  flush_all ();
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    spans := [];
    let v = try Ok (f ()) with e -> Error (Printexc.to_string e) in
    let oc = Unix.out_channel_of_descr w in
    Marshal.to_channel oc (v, !spans, !next_id) [];
    close_out oc;
    Unix._exit 0
  | pid -> (
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let v, child_spans, child_next = (Marshal.from_channel ic : _ * span list * int) in
    close_in ic;
    ignore (Unix.waitpid [] pid);
    spans := child_spans @ !spans;
    next_id := child_next;
    match v with Ok v -> v | Error e -> failwith e)

let write_spans ~workload path =
  Inputs.write_lines path
    (List.rev_map
       (fun s ->
         Json.to_string
           (Json.Obj
              [
                "id", Json.Int s.id;
                "parent", Json.Int s.parent;
                "group", Json.Int s.group;
                "name", Json.String s.name;
                "workload", Json.String workload;
                "instance", Json.String s.instance;
                "start", Json.Float s.t0;
                "end", Json.Float s.t1;
              ]))
       !spans)

(* Self time: a span's duration minus the part its children cover. *)
let self_times () =
  let covered = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let c = Option.value ~default:0. (Hashtbl.find_opt covered s.parent) in
      Hashtbl.replace covered s.parent (c +. duration s))
    !spans;
  List.map
    (fun s -> (s, duration s -. Option.value ~default:0. (Hashtbl.find_opt covered s.id)))
    !spans

let sum_named name =
  List.fold_left (fun acc s -> if s.name = name then acc +. duration s else acc) 0. !spans

(* ------------------------------------------------------------------ *)
(* Per-layer tallies *)

type search_tally = {
  mutable st : Stats.t list;
  mutable minor_words : float;
  mutable major : int;
}

let search_tally = { st = []; minor_words = 0.; major = 0 }

let gc_around f =
  let g0 = Gc.quick_stat () in
  let v = f () in
  let g1 = Gc.quick_stat () in
  (v, g1.Gc.minor_words -. g0.Gc.minor_words, g1.Gc.major_collections - g0.Gc.major_collections)

type proof_tally = { mutable steps : int; mutable checked : int; mutable valid : int }

let proof_tally = { steps = 0; checked = 0; valid = 0 }

type load_tally = {
  mutable bytes : int;
  mutable literals : int;
  mutable heap_words : int;
}

let load_tally = { bytes = 0; literals = 0; heap_words = 0 }

let failures = ref []  (* instance, reason, wrong *)
let checked = ref 0

let record_check ?(wrong = true) name = function
  | None -> incr checked
  | Some reason ->
    incr checked;
    failures := (name, reason, wrong) :: !failures

let config_of strategy =
  Config.with_profile_timers (List.assoc strategy Config.presets)

(* ------------------------------------------------------------------ *)
(* Batch workloads *)

type cli_outcome = {
  stats : Stats.t;
  minor_words : float;
  major : int;
  failure : string option;
  proof : (int * Drup.check_result) option;
}

(* The CLI's calls in the CLI's order (bin/berkmin_cli.ml), with the
   answer check after every span has closed. *)
let cli_path ~workload ~dir (r : Inputs.manifest_row) =
  let cnf = with_span "dimacs.parse" (fun () -> Dimacs.parse_file r.file) in
  let solver =
    with_span "load.create" (fun () -> Solver.create ~config:(config_of r.strategy) cnf)
  in
  let logged =
    if workload = "certify" then begin
      let p = Drup.create () in
      Solver.set_proof_logger solver (Drup.record p);
      Some p
    end
    else None
  in
  let result, minor_words, major =
    gc_around (fun () -> with_span "search.solve" (fun () -> Solver.solve solver))
  in
  let proof =
    match result, logged with
    | Solver.Unsat, Some p ->
      let path = Filename.concat dir (r.name ^ ".drup") in
      with_span "proof.write" (fun () -> Drup.write_file path p);
      let verdict = with_span "proof.check" (fun () -> Drup.check cnf p) in
      Some (Drup.length p, verdict)
    | _ -> None
  in
  let failure =
    match result with
    | Solver.Sat _ when r.expected = "unsat" -> Some "SAT on an UNSAT instance"
    | Solver.Sat m when not (Cnf.satisfied_by cnf m) -> Some "model falsifies the formula"
    | Solver.Sat _ -> None
    | Solver.Unsat when r.expected = "sat" -> Some "UNSAT on a SAT instance"
    | Solver.Unsat -> None
    | Solver.Unknown -> Some "UNKNOWN"
  in
  { stats = Solver.stats solver; minor_words; major; failure; proof }

(* The streaming path on the same file, in its own process so its heap
   figure is not inflated by the CLI path's solver. *)
let stream_path (r : Inputs.manifest_row) =
  let literals =
    with_span "dimacs.fold" (fun () ->
        In_channel.with_open_bin r.file (fun ic ->
            Dimacs.fold_clauses (Dimacs.From_channel ic) ~init:0 ~f:(fun acc _ n -> acc + n)))
  in
  let _solver =
    with_span "load.stream" (fun () -> Solver.load_file ~config:(config_of r.strategy) r.file)
  in
  (literals, (Gc.quick_stat ()).Gc.top_heap_words)

let batch_run ~workload ~dir =
  List.iteri
    (fun i (r : Inputs.manifest_row) ->
      group := i;
      instance := r.name;
      let o = with_span "instance" (fun () -> in_child (fun () -> cli_path ~workload ~dir r)) in
      search_tally.st <- o.stats :: search_tally.st;
      search_tally.minor_words <- search_tally.minor_words +. o.minor_words;
      search_tally.major <- search_tally.major + o.major;
      (match o.failure, o.proof with
      | Some _, _ | None, None -> record_check r.name o.failure
      | None, Some (steps, verdict) -> (
        proof_tally.steps <- proof_tally.steps + steps;
        proof_tally.checked <- proof_tally.checked + 1;
        match verdict with
        | Drup.Valid ->
          proof_tally.valid <- proof_tally.valid + 1;
          record_check r.name None
        | Drup.Invalid { step; reason; _ } ->
          (* the verdict was right; the certificate is what failed *)
          record_check ~wrong:false r.name (Some (Printf.sprintf "step %d: %s" step reason))));
      let literals, heap_words = with_span "stream" (fun () -> in_child (fun () -> stream_path r)) in
      load_tally.bytes <- load_tally.bytes + (Unix.stat r.file).Unix.st_size;
      load_tally.literals <- load_tally.literals + literals;
      load_tally.heap_words <- max load_tally.heap_words heap_words)
    (Inputs.manifest dir)

(* ------------------------------------------------------------------ *)
(* Serve *)

(* The two connection scripts interleaved request by request, the order
   in which a two-connection closed loop with equal latencies runs. *)
let interleave a b =
  let rec go acc a b =
    match a, b with
    | [], [] -> List.rev acc
    | x :: a, [] | [], x :: a -> go (x :: acc) a []
    | x :: a, y :: b -> go (y :: x :: acc) a b
  in
  go [] a b

let op_of line =
  Option.value ~default:"?" (Option.bind (Json.member "op" (Json.of_string line)) Json.to_string_opt)

let serve_socket ~dir requests =
  let path = Filename.concat dir "t.sock" in
  let r, w = Unix.pipe ~cloexec:true () in
  flush_all ();
  let pid =
    match Unix.fork () with
    | 0 ->
      Unix.close r;
      let t = Server.create () in
      Server.serve_socket_until t ~path ~ready:(fun () ->
          ignore (Unix.write_substring w "r" 0 1);
          Unix.close w);
      Unix._exit 0
    | pid -> pid
  in
  Unix.close w;
  ignore (Unix.read r (Bytes.create 1) 0 1);
  Unix.close r;
  let clients = [| Client.connect ~path; Client.connect ~path |] in
  let parsed = List.map (fun (c, line, _) -> (c, op_of line, Json.of_string line)) requests in
  let replies =
    with_span "serve.socket" (fun () ->
        List.mapi
          (fun i (c, op, req) ->
            group := i;
            (c, with_span ("rpc." ^ op) (fun () -> Client.rpc clients.(c) req)))
          parsed)
  in
  Client.shutdown clients.(0);
  Array.iter Client.close clients;
  ignore (Unix.waitpid [] pid);
  List.map (fun (c, rep) -> (c, Json.to_string rep)) replies

let serve_in_process requests =
  let t = Server.create ~config:(config_of "berkmin") () in
  let (), minor_words, major =
    gc_around (fun () ->
        List.iteri
          (fun i (_, line, _) ->
            group := i;
            let op = op_of line in
            if op = "close" then begin
              (* keep the session's counters before the solver goes *)
              let session =
                Option.bind (Json.member "session" (Json.of_string line)) Json.to_string_opt
              in
              match Option.bind session (Server.session_solver t) with
              | Some s -> search_tally.st <- Solver.stats s :: search_tally.st
              | None -> ()
            end;
            ignore (with_span ("handle." ^ op) (fun () -> Server.handle_line t line)))
          requests)
  in
  search_tally.minor_words <- minor_words;
  search_tally.major <- major;
  Server.close t

let serve_run ~dir =
  let scripts = List.init 2 (fun c -> List.map (fun (l, e) -> (c, l, e)) (Inputs.serve_script dir c)) in
  let requests = interleave (List.nth scripts 0) (List.nth scripts 1) in
  instance := "rpc";
  let replies = serve_socket ~dir requests in
  instance := "handle";
  with_span "serve.handle" (fun () -> serve_in_process requests);
  List.iteri
    (fun c script ->
      let mine = List.filter_map (fun (c', rep) -> if c = c' then Some rep else None) replies in
      let report =
        Check.serve_replies ~script:(List.map (fun (_, l, e) -> (l, e)) script) ~replies:mine
      in
      checked := !checked + report.Check.checked - List.length report.Check.failures;
      List.iter (fun (s, reason) -> record_check s (Some reason)) report.Check.failures)
    scripts

(* ------------------------------------------------------------------ *)
(* Summary *)

let percentile p xs =
  (* nearest rank, and only with at least ten samples beyond it *)
  let xs = List.sort compare xs in
  let n = List.length xs in
  if float_of_int n *. (1. -. (p /. 100.)) < 10. then nan
  else List.nth xs (min (n - 1) (int_of_float (ceil (p /. 100. *. float_of_int n)) - 1))

let ms_of name =
  List.filter_map (fun s -> if s.name = name then Some (duration s *. 1000.) else None) !spans

let sum_stats f = List.fold_left (fun acc st -> acc + f st) 0 search_tally.st
let sum_statf f = List.fold_left (fun acc st -> acc +. f st) 0. search_tally.st

let ratio a b = if b > 0. then a /. b else 0.

let run ~workload ~dir ~seed =
  instance := "gen";
  with_span "gen" (fun () -> Inputs.gen workload seed dir);
  let gen_s = sum_named "gen" in
  if workload = "serve" then serve_run ~dir else batch_run ~workload ~dir;
  write_spans ~workload (Filename.concat dir "spans.jsonl");
  let self = self_times () in
  let self_of pred = List.fold_left (fun acc (s, t) -> if pred s.name then acc +. t else acc) 0. self in
  let starts p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p in
  (* the pass wall time: CLI-path instances, or socket round trips *)
  let wall = if workload = "serve" then sum_named "serve.socket" else sum_named "instance" in
  let handle_ops ops = self_of (fun n -> List.exists (fun op -> n = "handle." ^ op) ops) in
  let dimacs_s = sum_named "dimacs.parse" in
  let create_s =
    if workload = "serve" then handle_ops [ "open"; "add_clauses" ] else sum_named "load.create"
  in
  let search_s =
    if workload = "serve" then handle_ops [ "solve" ] else sum_named "search.solve"
  in
  let proof_s = sum_named "proof.write" +. sum_named "proof.check" in
  let check_s = sum_named "proof.check" in
  let rpc_s = self_of (starts "rpc.") in
  let stream_s = sum_named "load.stream" in
  let fold_s = sum_named "dimacs.fold" in
  let bcp = sum_statf (fun st -> st.Stats.time_bcp)
  and analyze = sum_statf (fun st -> st.Stats.time_analyze)
  and reduce = sum_statf (fun st -> st.Stats.time_reduce) in
  let conflicts = sum_stats (fun st -> st.Stats.conflicts)
  and propagations = sum_stats (fun st -> st.Stats.propagations) in
  (* transport: client-observed round trip minus in-process service *)
  let per_request prefix =
    let t = Hashtbl.create 1024 in
    List.iter (fun s -> if starts prefix s.name then Hashtbl.replace t s.group (duration s)) !spans;
    t
  in
  let transport_ms =
    let rpc = per_request "rpc." and handle = per_request "handle." in
    Hashtbl.fold
      (fun g r acc ->
        match Hashtbl.find_opt handle g with Some h -> ((r -. h) *. 1000.) :: acc | None -> acc)
      rpc []
  in
  let p50 name = if workload = "serve" then percentile 50. (ms_of name) else 0. in
  let server_s = if workload = "serve" then rpc_s -. search_s -. create_s else 0. in
  let shares =
    [
      "share.dimacs", ratio dimacs_s wall;
      "share.load", ratio create_s wall;
      "share.search", ratio search_s wall;
      "share.proof", ratio proof_s wall;
      "share.server", ratio server_s wall;
    ]
  in
  let share n = List.assoc n shares in
  let check label value bound =
    ( Printf.sprintf "%s: %s %.3f >= %.2f %s" workload label value bound
        (if value >= bound then "held" else "MISSED"),
      value >= bound )
  in
  let share_checks =
    match workload with
    | "search" -> [ check "search layer" (share "share.search") 0.95 ]
    | "certify" -> [ check "proof layer" (share "share.proof") 0.85 ]
    | _ -> [ check "handle+transport" (ratio rpc_s wall) 0.90 ]
  in
  let held = List.for_all snd share_checks in
  let m unit v = (v, unit) in
  let metrics =
    [
      "gen.s", m "s" gen_s;
      "dimacs.parse_s", m "s" dimacs_s;
      "dimacs.mb_per_s", m "MB/s" (ratio (float_of_int load_tally.bytes /. 1e6) fold_s);
      "load.create_s", m "s" create_s;
      "load.stream_s", m "s" stream_s;
      "load.lits_per_s", m "1/s" (ratio (float_of_int load_tally.literals) stream_s);
      "load.heap_mb", m "MiB" (float_of_int (load_tally.heap_words * (Sys.word_size / 8)) /. 1048576.);
      "search.s", m "s" search_s;
      "search.bcp_s", m "s" bcp;
      "search.analyze_s", m "s" analyze;
      "search.reduce_s", m "s" reduce;
      "search.other_s", m "s" (search_s -. bcp -. analyze -. reduce);
      "search.props_per_s", m "1/s" (ratio (float_of_int propagations) search_s);
      "search.conflicts_per_s", m "1/s" (ratio (float_of_int conflicts) search_s);
      "search.conflicts", m "count" (float_of_int conflicts);
      "search.decisions", m "count" (float_of_int (sum_stats (fun st -> st.Stats.decisions)));
      "search.global_decisions", m "count" (float_of_int (sum_stats (fun st -> st.Stats.global_decisions)));
      "search.propagations", m "count" (float_of_int propagations);
      "search.watcher_visits", m "count" (float_of_int (sum_stats (fun st -> st.Stats.watcher_visits)));
      ( "search.blocker_hit_ratio",
        m "ratio"
          (ratio
             (float_of_int (sum_stats (fun st -> st.Stats.blocker_hits)))
             (float_of_int (sum_stats (fun st -> st.Stats.watcher_visits)))) );
      "search.restarts", m "count" (float_of_int (sum_stats (fun st -> st.Stats.restarts)));
      "search.reductions", m "count" (float_of_int (sum_stats (fun st -> st.Stats.reductions)));
      "search.gc_runs", m "count" (float_of_int (sum_stats (fun st -> st.Stats.gc_runs)));
      "search.minor_mwords", m "Mwords" (search_tally.minor_words /. 1e6);
      "search.major_collections", m "count" (float_of_int search_tally.major);
      "proof.check_s", m "s" check_s;
      "proof.steps", m "count" (float_of_int proof_tally.steps);
      "proof.steps_per_s", m "1/s" (ratio (float_of_int proof_tally.steps) check_s);
      ( "proof.valid_frac",
        m "ratio" (ratio (float_of_int proof_tally.valid) (float_of_int proof_tally.checked)) );
      "rpc.solve_ms_p50", m "ms" (p50 "rpc.solve");
      "rpc.solve_ms_p99", m "ms" (if workload = "serve" then percentile 99. (ms_of "rpc.solve") else 0.);
      "rpc.add_clause_ms_p50", m "ms" (p50 "rpc.add_clause");
      "rpc.add_clauses_ms_p50", m "ms" (p50 "rpc.add_clauses");
      ( "server.handle_ms_p50",
        m "ms"
          (if workload = "serve" then
             percentile 50. (List.concat_map ms_of (List.map (fun o -> "handle." ^ o)
               [ "open"; "add_clause"; "add_clauses"; "solve"; "stats"; "close" ]))
           else 0.) );
      ( "server.transport_ms_p50",
        m "ms" (if workload = "serve" then percentile 50. transport_ms else 0.) );
      "server.conflicts", m "count" (if workload = "serve" then float_of_int conflicts else 0.);
      "server.propagations", m "count" (if workload = "serve" then float_of_int propagations else 0.);
      "share.check_held", m "ratio" (if held then 1. else 0.);
    ]
    @ List.map (fun (n, v) -> (n, m "ratio" v)) shares
  in
  let metric_json (n, (v, u)) =
    (n, Json.Obj [ "value", (if Float.is_nan v then Json.Null else Json.Float v); "unit", Json.String u ])
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            "wall_s", Json.Float wall;
            "span_overhead_s", Json.Float (float_of_int (List.length !spans) *. span_cost ());
            "checked", Json.Int !checked;
            ( "failures",
              Json.List
                (List.rev_map
                   (fun (i, r, wrong) ->
                     Json.Obj [ "instance", Json.String i; "reason", Json.String r; "wrong", Json.Bool wrong ])
                   !failures) );
            "metrics", Json.Obj (List.map metric_json metrics);
            "shares", Json.Obj (List.map (fun (n, v) -> (n, Json.Float v)) shares);
            "share_checks", Json.List (List.map (fun (c, _) -> Json.String c) share_checks);
          ]))
