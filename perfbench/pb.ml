(* Helper executable of the benchmark (driven by perfbench/run.py):

     pb.exe gen WORKLOAD SEED DIR          write the inputs and a manifest
     pb.exe check-batch DIR OUTDIR         check CLI answers in OUTDIR
     pb.exe check-serve DIR REPLYDIR       check daemon replies in REPLYDIR
     pb.exe trace WORKLOAD DIR SEED        traced run, one JSON object out
     pb.exe ref                            the reference load (reference.ml)

   The file formats are described in inputs.ml. *)

open Inputs

let check_batch dir outdir =
  List.iter
    (fun r ->
      let out_file = Filename.concat outdir (r.name ^ ".out") in
      if Sys.file_exists out_file then
        match Check.cli_answer ~expected:r.expected ~cnf_file:r.file ~out_file with
        | Ok verdict -> Printf.printf "%s\tok\t%s\n" r.name verdict
        | Error reason -> Printf.printf "%s\tfail\t%s\n" r.name reason)
    (manifest dir)

let check_serve dir replydir =
  for c = 0 to 1 do
    let script = serve_script dir c in
    let replies = read_lines (conn_file replydir c "replies") in
    if List.length replies <> List.length script then
      Printf.printf "fail\tconn%d\t%d replies to %d requests\n" c (List.length replies)
        (List.length script)
    else begin
      let r = Check.serve_replies ~script ~replies in
      Printf.printf "checked\t%d\n" r.checked;
      List.iter (fun (s, reason) -> Printf.printf "fail\t%s\t%s\n" s reason) r.failures;
      List.iter (fun (s, cf, pr) -> Printf.printf "count\t%s\t%d\t%d\n" s cf pr) r.counts
    end
  done

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "gen"; workload; seed; dir ] -> gen workload (int_of_string seed) dir
  | [ "check-batch"; dir; outdir ] -> check_batch dir outdir
  | [ "check-serve"; dir; replydir ] -> check_serve dir replydir
  | [ "trace"; workload; dir; seed ] -> Trace_run.run ~workload ~dir ~seed:(int_of_string seed)
  | [ "ref" ] -> Reference.run ()
  | _ ->
    prerr_endline
      "usage: pb.exe (gen WORKLOAD SEED DIR | check-batch DIR OUTDIR | check-serve DIR \
       REPLYDIR | trace WORKLOAD DIR SEED | ref)";
    exit 2
