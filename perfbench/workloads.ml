(* The benchmark's inputs, one list per workload.  Families without a
   seed knob (pigeonhole, hanoi, pipeline and adder/ALU/multiplier
   miters) are fixed; the BMC locks and the serve request scripts take
   the workload seed, so one seed names one input set.
   Sizes and the reasons for them are in perfbench/README.md. *)

open Berkmin_types
open Berkmin_gen

type entry = {
  name : string;  (** unique within the workload; also the file stem *)
  inst : Instance.t;
  strategy : string;  (** [berkmin] preset name passed with [-s] *)
}

let entry ?(strategy = "berkmin") ?name inst =
  let name = Option.value name ~default:inst.Instance.name in
  { name; inst; strategy }

(* Random 3-SAT, random miters and Tseitin formulas change cost by 2x
   to 100x from one seed to the next, so they are pinned to these
   seeds; the workload seed drives the families whose cost is stable
   under re-seeding. *)
let pinned_seed = 11

let search ~seed =
  let bmc_unsat = Bigbench.bmc_lock_instance ~combo_len:20 ~reachable:false ~seed in
  let rc = Circuit_bench.random_miter ~gates:400 ~seed:pinned_seed in
  let mul = Circuit_bench.mul_miter ~width:7 in
  (* at seed 11 Chaff needs 5 s on this one; seed 1 keeps the lane fast *)
  let plant = Random_ksat.planted_instance ~num_vars:300 ~ratio:4.20 ~seed:1 in
  let hanoi = Hanoi.sat_instance 5 in
  let berkmin =
    List.map entry
      [
        Circuit_bench.pipeline_unsat ~stages:2 ~width:3;
        mul;
        rc;
        bmc_unsat;
        Bigbench.bmc_lock_instance ~combo_len:20 ~reachable:true ~seed;
        Pigeonhole.instance 8 7;
        hanoi;
        Random_ksat.instance ~num_vars:250 ~ratio:4.26 ~seed:pinned_seed;
        plant;
        Random_ksat.planted_instance ~num_vars:10000 ~ratio:3.00 ~seed:pinned_seed;
      ]
  in
  let chaff =
    List.map
      (fun i -> entry ~strategy:"chaff" ~name:("chaff." ^ i.Instance.name) i)
      [ bmc_unsat; rc; mul; plant; hanoi ]
  in
  berkmin @ chaff

let certify ~seed =
  List.map entry
    [
      Parity.tseitin_instance ~num_vars:40 ~degree:3 ~seed:(pinned_seed + 1);
      Pigeonhole.instance 8 7;
      Circuit_bench.alu_miter ~width:6;
      Circuit_bench.adder_miter ~width:32;
      Bigbench.bmc_lock_instance ~combo_len:12 ~reachable:false ~seed;
    ]

let batch ~workload ~seed =
  match workload with
  | "search" -> search ~seed
  | "certify" -> certify ~seed
  | w -> invalid_arg ("not a batch workload: " ^ w)

(* ------------------------------------------------------------------ *)
(* Serve: scripted sessions over two connections.

   A session opens a solver with [n + selectors] variables, loads a
   base formula with one [add_clauses], then alternates [add_clause]
   and [solve]-under-assumptions, and ends with [stats] and [close].
   Every expected answer is known by construction:
   - on a SAT base, a reference model [m] (found at set-up and checked
     by {!Check.model_ok}) satisfies every added clause, so a solve
     whose assumptions agree with [m] is SAT;
   - an "armed" selector [s] gets the clauses (-s x) and (-s -x), so
     any solve assuming [s] is UNSAT with a core inside the
     assumptions;
   - on an UNSAT base every solve is UNSAT. *)

type expect = Ok_reply | Sat_reply | Unsat_reply | Stats_reply

let expect_to_string = function
  | Ok_reply -> "ok"
  | Sat_reply -> "sat"
  | Unsat_reply -> "unsat"
  | Stats_reply -> "stats"

let selectors = 8

(* Twelve sessions per connection, cycling through three SAT bases and
   one UNSAT base: 24 [add_clauses] per pass, enough for a median with
   ten samples beyond it.  Every base's verdict is fixed by its
   construction.  (Circuit_bench.adder_buggy_miter is not used: at
   width 12 and seed 7 its fault is untestable and the miter is UNSAT
   although labelled SAT.)  The bases are pinned: seeded by the
   workload seed, their conflicts per pass ranged 2x across seeds; the
   seed drives the request scripts instead. *)
let sessions_per_conn = 12

let serve_bases () =
  let base c i =
    let s = pinned_seed + (100 * c) + i in
    match i mod 4 with
    | 0 -> Bigbench.bmc_lock_instance ~combo_len:10 ~reachable:true ~seed:s
    | 1 -> Random_ksat.planted_instance ~num_vars:200 ~ratio:3.5 ~seed:s
    | 2 -> Bigbench.bmc_lock_instance ~combo_len:12 ~reachable:true ~seed:s
    | _ -> Circuit_bench.adder_miter ~width:10
  in
  List.init 2 (fun c -> List.init sessions_per_conn (base c))

(* 2 connections x 12 sessions x 45 solves: one pass has over 1,000
   solves, so even a single traced pass has a p99 with ten samples
   beyond it *)
let rounds = 45

let session_script ~rng ~session ~(inst : Instance.t) ~model =
  let open Json in
  let cnf = inst.Instance.cnf in
  let n = Cnf.num_vars cnf in
  let req op fields = Obj (("op", String op) :: ("session", String session) :: fields) in
  let ints l = List (List.map (fun i -> Int i) l) in
  let clause_ints c = List.map Lit.to_dimacs (Clause.to_list c) in
  let lines = ref [] in
  let push r e = lines := (Json.to_string r, e) :: !lines in
  push (req "open" [ "vars", Int (n + selectors) ]) Ok_reply;
  push
    (req "add_clauses"
       [ "clauses", List (List.map (fun c -> ints (clause_ints c)) (Cnf.clauses cnf)) ])
    Ok_reply;
  let sat_base = model <> None in
  let armed = Array.make selectors false in
  let agree v =
    match model with
    | Some m -> if m.(v) then v + 1 else -(v + 1)
    | None -> if Random.State.bool rng then v + 1 else -(v + 1)
  in
  for _ = 1 to rounds do
    (* a write: either arm a selector or add a clause the model keeps *)
    let j = Random.State.int rng selectors in
    if (not armed.(j)) && Random.State.int rng 8 = 0 then begin
      armed.(j) <- true;
      let x = 1 + Random.State.int rng n and s = n + j + 1 in
      push (req "add_clause" [ "lits", ints [ -s; x ] ]) Ok_reply;
      push (req "add_clause" [ "lits", ints [ -s; -x ] ]) Ok_reply
    end
    else begin
      let a = Random.State.int rng n
      and b = Random.State.int rng n
      and c = Random.State.int rng n in
      let flip l = if Random.State.bool rng then l else -l in
      push (req "add_clause" [ "lits", ints [ agree a; flip (b + 1); flip (c + 1) ] ])
        Ok_reply
    end;
    (* a read: solve under model-agreeing assumptions, sometimes with
       an armed selector *)
    let k = 1 + Random.State.int rng 6 in
    let assumps = List.init k (fun _ -> agree (Random.State.int rng n)) in
    let armed_one =
      if Random.State.int rng 4 = 0 then
        let j = Random.State.int rng selectors in
        if armed.(j) then Some (n + j + 1) else None
      else None
    in
    let assumps =
      match armed_one with Some s -> s :: assumps | None -> assumps
    in
    let expect =
      if sat_base && armed_one = None then Sat_reply else Unsat_reply
    in
    push (req "solve" [ "assumps", ints assumps ]) expect
  done;
  push (req "stats" []) Stats_reply;
  push (req "close" []) Ok_reply;
  List.rev !lines

(* One script per connection: (request line, expected reply kind). *)
let serve_scripts ~seed ~reference_model =
  List.mapi
    (fun c bases ->
      let rng = Random.State.make [| 0x5e7e; seed; c |] in
      List.concat
        (List.mapi
           (fun i inst ->
             let session = Printf.sprintf "c%d_%d_%s" c i inst.Instance.name in
             let model =
               match inst.Instance.expected with
               | Instance.Expect_sat -> Some (reference_model inst)
               | Instance.Expect_unsat | Instance.Expect_any -> None
             in
             session_script ~rng ~session ~inst ~model)
           bases))
    (serve_bases ())
