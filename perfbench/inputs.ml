(* Input generation and the files it leaves: DIMACS instances with a
   manifest for the batch workloads, request scripts for serve.

   Manifest lines are tab-separated: name, file, expected verdict
   (sat, unsat or any), preset.  A serve script is conn<k>.jsonl (one
   request per line) beside conn<k>.expect (the expected reply kind of
   each request). *)

open Berkmin_gen
module Dimacs = Berkmin_dimacs.Dimacs

let expected_string = function
  | Instance.Expect_sat -> "sat"
  | Instance.Expect_unsat -> "unsat"
  | Instance.Expect_any -> "any"

let write_lines path lines =
  Out_channel.with_open_bin path (fun oc ->
      List.iter (fun l -> output_string oc l; output_char oc '\n') lines)

let read_lines path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let reference_model (inst : Instance.t) =
  match Berkmin.Solver.solve_cnf inst.Instance.cnf with
  | Berkmin.Solver.Sat m when Berkmin_types.Cnf.satisfied_by inst.Instance.cnf m -> m
  | _ -> failwith ("no checked reference model for " ^ inst.Instance.name)

let conn_file dir c ext = Filename.concat dir (Printf.sprintf "conn%d.%s" c ext)

let gen workload seed dir =
  if workload = "serve" then
    List.iteri
      (fun c script ->
        write_lines (conn_file dir c "jsonl") (List.map fst script);
        write_lines (conn_file dir c "expect")
          (List.map (fun (_, e) -> Workloads.expect_to_string e) script))
      (Workloads.serve_scripts ~seed ~reference_model)
  else begin
    let written = Hashtbl.create 16 in
    let manifest =
      List.map
        (fun (e : Workloads.entry) ->
          let file = Filename.concat dir (e.inst.Instance.name ^ ".cnf") in
          if not (Hashtbl.mem written file) then begin
            Hashtbl.add written file ();
            Dimacs.write_file file e.inst.Instance.cnf
          end;
          String.concat "\t"
            [ e.name; file; expected_string e.inst.Instance.expected; e.strategy ])
        (Workloads.batch ~workload ~seed)
    in
    write_lines (Filename.concat dir "manifest.tsv") manifest
  end

type manifest_row = { name : string; file : string; expected : string; strategy : string }

let manifest dir =
  List.map
    (fun l ->
      match String.split_on_char '\t' l with
      | [ name; file; expected; strategy ] -> { name; file; expected; strategy }
      | _ -> failwith ("bad manifest line: " ^ l))
    (read_lines (Filename.concat dir "manifest.tsv"))


let serve_script dir c =
  List.combine (read_lines (conn_file dir c "jsonl")) (read_lines (conn_file dir c "expect"))
